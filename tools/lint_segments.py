"""Offline segment linting: capture, archive, verify.

Two subcommands:

* ``capture BENCH OUT.jsonl`` — replay a benchmark's retire stream
  through the fill unit and archive every (original, optimized)
  segment pair as JSONL (see :mod:`repro.verify.archive`).
* ``lint ARCHIVE.jsonl [...]`` — run the full segment verifier (lint
  rules + symbolic translation validation) over archived pairs,
  without re-running the simulator.

Usage:
    PYTHONPATH=src python tools/lint_segments.py capture compress \
        compress_segments.jsonl --opts all
    PYTHONPATH=src python tools/lint_segments.py lint \
        compress_segments.jsonl

The lint step exits nonzero when any error-severity violation is
found, so an archive can gate CI the same way ``verify-traces`` does.
"""

from __future__ import annotations

import argparse
import sys

from repro import workloads
from repro.branch.bias import BiasTable
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig
from repro.fillunit.unit import FillUnit, FillUnitConfig
from repro.machine.executor import Executor
from repro.tracecache.cache import TraceCache, TraceCacheConfig
from repro.verify import SegmentVerifier
from repro.verify.archive import read_pairs, write_pair


def cmd_capture(args: argparse.Namespace) -> int:
    program = workloads.build(args.benchmark, args.scale)
    trace = Executor(program).run()
    opts = OptimizationConfig.named(args.opts)
    bias = BiasTable(64, threshold=4)
    unit = FillUnit(
        FillUnitConfig(latency=1, optimizations=opts),
        TraceCache(TraceCacheConfig(num_sets=64, assoc=4)), bias)
    collector = FillCollector(bias, 16, 3)
    pairs = 0
    with open(args.output, "w") as handle:
        for record in trace:
            if record.instr.is_cond_branch():
                bias.record(record.pc, record.taken)
            for candidate in collector.add(record):
                original = unit.assemble_segment(candidate)
                optimized = unit.build_segment(candidate)
                write_pair(handle, original, optimized,
                           meta={"benchmark": args.benchmark,
                                 "opts": args.opts})
                pairs += 1
                if args.limit and pairs >= args.limit:
                    break
            else:
                continue
            break
    print(f"captured {pairs} segment pairs from {args.benchmark} "
          f"({args.opts}) into {args.output}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    verifier = SegmentVerifier(OptimizationConfig.named(args.opts))
    shown = 0
    for path in args.archives:
        for original, optimized, meta in read_pairs(path):
            violations = verifier.check(original, optimized)
            for violation in violations:
                if violation.severity != "error":
                    continue
                if shown < args.show:
                    where = meta.get("benchmark", path)
                    print(f"{where} pc={optimized.start_pc:#x}: "
                          f"{violation.render()}")
                    shown += 1
    print(verifier.report.render())
    return 1 if verifier.report.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lint_segments",
        description="Capture and lint (original, optimized) trace "
                    "segment pairs offline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capture",
                           help="archive segment pairs from a replay")
    p_cap.add_argument("benchmark", choices=workloads.names())
    p_cap.add_argument("output", metavar="OUT.jsonl")
    p_cap.add_argument("--opts", default="all")
    p_cap.add_argument("--scale", type=float, default=0.3)
    p_cap.add_argument("--limit", type=int, default=0,
                       help="stop after N pairs (0 = no limit)")
    p_cap.set_defaults(func=cmd_capture)

    p_lint = sub.add_parser("lint", help="verify archived pairs")
    p_lint.add_argument("archives", nargs="+", metavar="ARCHIVE.jsonl")
    p_lint.add_argument("--opts", default="all",
                        help="optimization config the pairs were "
                             "captured under (sets rule limits)")
    p_lint.add_argument("--show", type=int, default=10,
                        help="violation messages to print (default 10)")
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
