#!/usr/bin/env python
"""Static-vs-dynamic opportunity table.

For each benchmark, tabulates the static analyzer's per-class
opportunity site counts (``repro.analysis.static``) next to what the
fill unit actually transformed during a simulated run: the number of
distinct transformed PCs (which the oracle bounds by the static count)
and the total transformed-instruction coverage from
:class:`~repro.core.results.OptCoverage` (which may exceed the site
count — one hot PC is fetched many times).

Usage::

    PYTHONPATH=src python tools/analyze_report.py [BENCH ...]
        [--scale 0.5] [--opts all]
"""

from __future__ import annotations

import argparse
import sys

from repro import workloads
from repro.analysis.static import analyze_program
from repro.core.config import SimConfig
from repro.fillunit.opts.base import OptimizationConfig
from repro.harness.crosscheck import collect_dynamic_sites
from repro.harness.tables import TableResult
from repro.machine.executor import Executor

#: (display label, site-set key, OptCoverage attribute)
CLASSES = (("moves", "moves", "moves"),
           ("reassoc", "reassoc", "reassoc"),
           ("scaled", "scaled", "scaled"),
           ("any_opt", "any_opt", "any_opt"))


def opportunity_table(benchmarks: list, scale: float,
                      opts: str = "all") -> TableResult:
    """Build the static-vs-dynamic table for *benchmarks*."""
    config = SimConfig.paper(OptimizationConfig.named(opts))
    rows = []
    for name in benchmarks:
        program = workloads.build(name, scale)
        static = analyze_program(program, name).site_sets()
        trace = Executor(program).run()
        result, dynamic = collect_dynamic_sites(trace, config, name,
                                                opts)
        for label, key, attr in CLASSES:
            covered = getattr(result.coverage, attr)
            rows.append([
                name, label, len(static[key]),
                len(dynamic[key]), covered,
                f"{100.0 * covered / result.instructions:.1f}",
            ])
    return TableResult(
        "Opportunity oracle", "static bounds vs dynamic transformations",
        ["benchmark", "class", "static sites", "dynamic PCs",
         "covered instrs", "% of instrs"],
        rows,
        "dynamic PCs <= static sites is the oracle invariant; covered "
        "instrs counts every fetch of a transformed PC")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmarks", nargs="*", metavar="BENCH",
                        help="benchmarks to tabulate "
                             "(default: compress li)")
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument(
        "--opts", default="all",
        choices=["moves", "reassoc", "scaled_adds", "placement", "all"],
        help="optimization set for the dynamic leg (default all)")
    args = parser.parse_args(argv)

    names = args.benchmarks or ["compress", "li"]
    unknown = [n for n in names if n not in workloads.names()]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}")
        return 2
    print(opportunity_table(names, args.scale, args.opts).render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
