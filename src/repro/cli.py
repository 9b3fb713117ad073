"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the fifteen benchmarks with their paper fingerprints.
* ``run BENCH`` — simulate one benchmark under one or more
  ``--opts`` sets (the first is the baseline of the ``+x%`` column)
  and print each result summary. Observation flags choose what else a
  run prints or records: ``--attribution`` (cycle attribution table,
  each later leg's per-class delta against the first, and counter
  snapshot), ``--events FILE.jsonl`` (structured events of every leg),
  ``--timeline FILE.json`` (a Chrome trace-event file of one run,
  loadable at https://ui.perfetto.dev) and ``--hostprof FILE.json``
  (the host-time profile, also printed; it profiles whatever the
  other flags make the run record, and alone the plain run).
  ``--verify`` checks every fill-unit rewrite, one pass at a time
  (see ``docs/verification.md``), prints each leg's verification
  report and exits 1 on any error-severity violation.
* ``figures`` — simulate the paper's grid and print every table and
  figure of its evaluation: Table 1, Figures 3-8 (ASCII) and Table 2,
  whose last line names the benchmarks outside 3x of the paper's
  coverage. ``--svg DIR`` also writes the figures as SVG files.
* ``analyze [BENCH ...]`` — static analysis (CFG, dataflow, fill-unit
  opportunity bounds, workload lint; see ``docs/static-analysis.md``)
  of the machine the common options build, whose scaled-add shift
  limit and cluster geometry the bounds take; exits 1 on a lint
  error. ``--cross-check`` validates the dynamic optimizers on that
  same machine against the static opportunity oracle and prints, per
  opt class, the committed instructions the run covered (the paper's
  Table 2 coverage).
* ``asm FILE`` — assemble and run an assembly file (functionally, and
  optionally through the timing model).
"""

from __future__ import annotations

import argparse
from dataclasses import replace
import sys
from typing import List, Optional

from repro import workloads
from repro.cache.policy import POLICY_NAMES
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.errors import ReproError
from repro.fillunit.opts.base import PASS_ORDER, OptimizationConfig
from repro.machine.executor import Executor


def _add_common(parser: argparse.ArgumentParser,
                legs: bool = False) -> None:
    """The machine options; with *legs*, ``--opts`` takes one or more
    names (a list) instead of exactly one."""
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload length multiplier (default 0.5)")
    parser.add_argument(
        "--opts", nargs="+" if legs else None,
        default=["all"] if legs else "all",
        choices=["none", *PASS_ORDER, "all", "extended"],
        help="fill-unit optimization set (default all)"
             + ("; several names run one leg each, the first being the "
                "baseline of the +x%% column" if legs else ""))
    parser.add_argument("--fill-latency", type=int, default=5,
                        help="fill pipeline latency in cycles (default 5)")
    parser.add_argument(
        "--policy", default="lru", choices=POLICY_NAMES,
        help="replacement policy for the trace cache and memory "
             "hierarchy (default lru; trrip adds loop-aware static "
             "temperature hints)")


def _config(args, opts: Optional[str] = None) -> SimConfig:
    """The paper machine per the verb's ``--opts`` (or *opts*),
    ``--fill-latency`` and ``--policy``; the policy applies to the
    trace cache and the memory hierarchy alike."""
    config = SimConfig.paper(OptimizationConfig.named(opts or args.opts),
                             args.fill_latency)
    return replace(
        config,
        trace_cache=replace(config.trace_cache, policy=args.policy),
        hierarchy=replace(config.hierarchy, policy=args.policy))


def cmd_list(args) -> int:
    print(f"{'benchmark':13s} {'suite':10s} "
          f"{'mv%':>5s} {'ra%':>5s} {'sc%':>5s} {'tot%':>5s}  kernel")
    for name in workloads.names():
        spec = workloads.spec(name)
        row = spec.paper_table2
        print(f"{name:13s} {spec.suite:10s} "
              f"{row.moves:5.1f} {row.reassoc:5.1f} {row.scaled:5.1f} "
              f"{row.total:5.1f}  {spec.description}")
    print("\n(percent columns: the paper's Table 2 fingerprints)")
    return 0


def cmd_run(args) -> int:
    """Simulate one benchmark once per ``--opts`` name, all legs on one
    committed trace and, when ``--events`` or ``--timeline`` is given,
    one telemetry session. ``--attribution`` only prints what every
    run records (and each later leg's delta against the first), and
    ``--hostprof`` attaches no session of its own, so either alone
    profiles the same run a plain ``run`` takes; neither does
    ``--verify``, whose report is the fill unit's own. Returns 1 when
    ``--verify`` found an error-severity violation in any leg."""
    if args.timeline and len(args.opts) > 1:
        raise ReproError("--timeline records one run; give one --opts "
                         f"name, not {len(args.opts)}")
    repeated = sorted({name for name in args.opts
                       if args.opts.count(name) > 1})
    if repeated:
        # a leg is labelled by its name (in its summary and its
        # events), so two legs of one name could not be told apart
        raise ReproError("each --opts name labels one leg; repeated: "
                         + ", ".join(repeated))
    trace = Executor(workloads.build(args.benchmark, args.scale)).run()
    telemetry = sink = archive = profiler = None
    if args.events or args.timeline:
        from repro.telemetry import Telemetry
        telemetry = Telemetry(spans=bool(args.timeline))
        if args.events:
            sink = telemetry.attach_jsonl(args.events)
        if args.timeline:
            archive = telemetry.attach_memory()
    if args.hostprof:
        from repro.telemetry.hostprof import HostProfiler
        profiler = HostProfiler()

    baseline = None
    violations = 0
    for name in args.opts:
        config = replace(_config(args, name), verify_fill=args.verify)
        engine = Engine(config, telemetry=telemetry)
        if profiler is not None:
            profiler.attach(engine)
        result = engine.run(trace, args.benchmark, name)
        line = result.summary()
        if baseline is None:
            baseline = result
        else:
            line += f"  ({result.improvement_over(baseline):+5.1f}%)"
        print(line)
        cov = result.coverage.as_percentages(result.instructions)
        print(f"transformed: {cov['any_opt']:.1f}% "
              f"(moves {cov['moves']:.1f}, reassoc {cov['reassoc']:.1f}, "
              f"scaled {cov['scaled']:.1f})")
        print(f"mispredict rate: {100 * result.mispredict_rate:.2f}%   "
              f"segments built: {result.segments_built}")
        if args.verify:
            report = engine.fill_unit.verifier.report
            print(report.render())
            violations += report.violations
        if args.attribution:
            _print_attribution(result, baseline)

    if telemetry is not None:
        telemetry.close()
    if sink is not None:
        print(f"wrote {sink.written} telemetry events to {sink.path}")
    if archive is not None:
        from repro.telemetry.exporters import write_chrome_trace
        count = write_chrome_trace(
            args.timeline, telemetry.spans, events=archive.events,
            metadata={"benchmark": args.benchmark, "opts": args.opts[0],
                      "scale": args.scale, "cycles": baseline.cycles})
        recorder = telemetry.spans
        print(f"wrote {count} trace events ({len(recorder)} spans on "
              f"tracks: {', '.join(recorder.tracks())}) to "
              f"{args.timeline}")
        print("  open in https://ui.perfetto.dev (pid 1 = simulated "
              "cycles)")
    if profiler is not None:
        import json
        with open(args.hostprof, "w") as handle:
            json.dump(profiler.to_dict(), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote host-time profile to {args.hostprof}")
        print(profiler.render(f"host-time profile ({args.benchmark})"))
    return 1 if violations else 0


def _print_attribution(result, baseline) -> None:
    """One leg's cycle attribution table, its per-class delta against
    the first leg *baseline* (for a later leg; the ``total`` row's
    delta is the cycle delta) and its counter snapshot."""
    from repro.telemetry.attribution import (
        diff_attribution,
        render_attribution,
    )
    print(render_attribution(result.attribution, result.cycles))
    if result is not baseline:
        print(f"cycle attribution delta against "
              f"{baseline.config_label}")
        print(diff_attribution(baseline.config_label, baseline.attribution,
                               result.config_label, result.attribution))
    print("telemetry counters")
    for scope, value in result.telemetry.items():
        if isinstance(value, dict):     # histogram snapshot
            value = (f"count={value['count']} mean={value['mean']:.1f} "
                     f"min={value['min']} max={value['max']}")
        print(f"  {scope:42s} {value}")
    print()


def cmd_figures(args) -> int:
    """Simulate the paper grid through the execution service (inline
    at ``--jobs 1``) and print Table 1, Figures 3-8 and Table 2. The
    scale, elapsed time, job tally, host-time split, code version and
    grid fingerprint go to stderr, so stdout depends only on the scale
    and the code."""
    import time

    from repro.exec.fingerprint import code_version, grid_fingerprint
    from repro.exec.grid import paper_grid
    from repro.exec.service import ExecutionService
    from repro.harness import figures, tables

    start = time.time()
    service = ExecutionService(scale=args.scale, jobs=args.jobs,
                               cache_dir=args.cache_dir)
    benchmarks = workloads.names()
    grid = paper_grid(benchmarks)
    service.run_many(grid)
    results = [tables.table1(service, benchmarks),
               *figures.all_figures(service, benchmarks),
               tables.table2(service, benchmarks)]
    print("\n\n".join(result.render() for result in results))
    if args.svg:
        from repro.harness.svgchart import write_all_figures
        for path in write_all_figures(service, benchmarks, args.svg):
            print(f"wrote {path}", file=sys.stderr)
    stats, host = service.stats, service.host_s
    print(f"scale={args.scale}  jobs={args.jobs}  "
          f"elapsed={time.time() - start:.0f}s\n"
          f"exec: simulated={stats['simulated']} memo={stats['memo']} "
          f"disk={stats['disk']} retried={stats['retried']} (cache hit "
          f"rate {100.0 * service.cache_hit_rate:.0f}%)\n"
          f"host: trace={host['trace']:.1f}s engine={host['engine']:.1f}s "
          f"cache_write={host['cache_write']:.1f}s (sums over simulated "
          f"jobs, which overlap under --jobs N)\n"
          f"code: {code_version()} grid: "
          f"{grid_fingerprint(service.fingerprint(job) for job in grid)}",
          file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    """Statically analyze workloads for the machine ``_config`` builds:
    CFG/loop shape, fill-unit opportunity bounds and lint findings.
    Optionally cross-check the dynamic optimizers, on that same
    machine, against the static opportunity oracle; exits 1 on lint
    errors or oracle violations."""
    import json

    from repro.analysis.static import analyze_program
    from repro.core.export import analysis_to_dict

    names = args.benchmarks or workloads.names()
    unknown = [n for n in names if n not in workloads.names()]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}")
        return 2

    config = _config(args)
    reports = {}
    failures = []
    for name in names:
        program = workloads.build(name, args.scale)
        report = analyze_program(program, name, config)
        reports[name] = report
        print(report.summary())
        for finding in report.lint[:args.show]:
            print(f"    {finding.render()}")
        errors = report.lint_errors()
        if errors:
            failures.append(f"{name}: {len(errors)} lint errors")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({name: analysis_to_dict(r)
                       for name, r in reports.items()}, handle, indent=1)
        print(f"wrote {len(reports)} analysis reports to {args.json}")

    if args.cross_check:
        from repro.errors import ConfigError
        from repro.harness.crosscheck import cross_check
        print()
        for name in names:
            trace = Executor(workloads.build(name, args.scale)).run()
            try:
                check = cross_check(reports[name], trace, config,
                                    name, args.opts)
            except ConfigError as exc:
                print(f"cross-check: {exc}")
                return 2
            print(check.render())
            if not check.ok:
                failures.append(
                    f"{name}: {len(check.violations)} oracle "
                    f"violations")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    return 0


def cmd_asm(args) -> int:
    from repro.asm import assemble
    with open(args.file) as handle:
        source = handle.read()
    program = assemble(source, name=args.file)
    trace = Executor(program).run(max_instructions=args.max_instructions)
    print(f"{args.file}: {len(trace)} committed instructions, "
          f"output {trace.output}")
    if args.simulate:
        result = Engine(_config(args)).run(trace, args.file, args.opts)
        print(result.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trace-cache fill-unit optimization reproduction "
                    "(Friendly/Patel/Patt, MICRO 1998)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks").set_defaults(
        func=cmd_list)

    p_run = sub.add_parser(
        "run", help="simulate one benchmark under one or more "
                    "optimization sets")
    p_run.add_argument("benchmark", choices=workloads.names())
    _add_common(p_run, legs=True)
    p_run.add_argument("--attribution", action="store_true",
                       help="print each leg's cycle attribution table, "
                            "its per-class delta against the first leg "
                            "and its counter snapshot")
    p_run.add_argument("--events", metavar="FILE.jsonl",
                       help="write every leg's structured telemetry "
                            "events to FILE.jsonl (overwrites it)")
    p_run.add_argument("--timeline", metavar="FILE.json",
                       help="write a Chrome trace-event timeline of the "
                            "run (one --opts name only)")
    p_run.add_argument("--hostprof", metavar="FILE.json",
                       help="write the host-time profile as JSON (summed "
                            "over the legs) and print it")
    p_run.add_argument("--verify", action="store_true",
                       help="check every fill-unit rewrite, pass by "
                            "pass, print each leg's verification "
                            "report and exit 1 on any error violation "
                            "(adds verify spans to --timeline)")
    p_run.set_defaults(func=cmd_run)

    p_fig = sub.add_parser(
        "figures", help="regenerate tables 1-2 and figures 3-8")
    p_fig.add_argument("--scale", type=float, default=0.5,
                       help="workload length multiplier (default 0.5; "
                            "EXPERIMENTS.md is scale 1.0)")
    p_fig.add_argument("--svg", metavar="DIR",
                       help="also write figures 3-8 as SVG files into DIR")
    p_fig.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the simulation grid "
                            "(default 1: in-process)")
    p_fig.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="content-addressed result cache; warm "
                            "entries replay without simulating")
    p_fig.set_defaults(func=cmd_figures)

    p_ana = sub.add_parser(
        "analyze",
        help="static CFG/dataflow analysis, opportunity bounds, lint")
    p_ana.add_argument("benchmarks", nargs="*", metavar="BENCH",
                       help="benchmarks to analyze (default: all)")
    _add_common(p_ana)
    p_ana.add_argument("--json", metavar="FILE",
                       help="write full analysis reports to FILE")
    p_ana.add_argument("--cross-check", action="store_true",
                       help="simulate each benchmark, check dynamic "
                            "transformed PCs against the static bounds "
                            "and print each class's coverage")
    p_ana.add_argument("--show", type=int, default=10,
                       help="lint findings to print per benchmark "
                            "(default 10)")
    p_ana.set_defaults(func=cmd_analyze)

    p_asm = sub.add_parser("asm", help="assemble and run a .s file")
    p_asm.add_argument("file")
    p_asm.add_argument("--simulate", action="store_true",
                       help="also run the timing model")
    p_asm.add_argument("--max-instructions", type=int, default=5_000_000)
    _add_common(p_asm)
    p_asm.set_defaults(func=cmd_asm)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as err:
        print(f"repro: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
