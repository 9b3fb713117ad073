"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the fifteen benchmarks with their paper fingerprints.
* ``run BENCH`` — simulate one benchmark under a chosen optimization
  set and print the result summary.
* ``profile BENCH`` — simulate with full telemetry: cycle attribution
  table plus the hierarchical counter snapshot (optionally archived as
  JSONL with ``--telemetry-out``).
* ``trace BENCH`` — simulate with span tracing and the host-time
  profiler; writes a Chrome trace-event file (``--out``, loadable at
  https://ui.perfetto.dev) and optionally an OpenMetrics snapshot
  (``--metrics-out``) and a host-time profile (``--hostprof-out``).
* ``compare BENCH`` — baseline vs each optimization vs combined.
* ``figures`` — regenerate the paper's figures 3-8 (ASCII).
* ``tables`` — regenerate tables 1-2.
* ``validate [BENCH ...]`` — score workload fingerprints against the
  paper's Table 2 targets.
* ``verify-traces [BENCH ...]`` — replay benchmarks with online
  segment verification (see ``docs/verification.md``); exits nonzero
  on any invariant or equivalence violation.
* ``analyze [BENCH ...]`` — static analysis (CFG, dataflow, fill-unit
  opportunity bounds, workload lint; see ``docs/static-analysis.md``);
  ``--baseline`` gates lint counts against a checked-in baseline and
  ``--cross-check`` validates the dynamic optimizers against the
  static opportunity oracle.
* ``asm FILE`` — assemble and run an assembly file (functionally, and
  optionally through the timing model).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import workloads
from repro.core.config import SimConfig
from repro.core.simulator import Simulator
from repro.errors import ReproError
from repro.fillunit.opts.base import OptimizationConfig


def _opt_config(name: str) -> OptimizationConfig:
    if name == "none":
        return OptimizationConfig.none()
    if name == "all":
        return OptimizationConfig.all()
    if name == "extended":
        return OptimizationConfig.extended()
    return OptimizationConfig.only(name)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload length multiplier (default 0.5)")
    parser.add_argument(
        "--opts", default="all",
        choices=["none", "moves", "reassoc", "scaled_adds", "placement",
                 "cse", "dead_code", "all", "extended"],
        help="fill-unit optimization set (default all)")
    parser.add_argument("--fill-latency", type=int, default=5,
                        help="fill pipeline latency in cycles (default 5)")
    parser.add_argument(
        "--policy", default="lru",
        choices=["lru", "srrip", "trrip"],
        help="replacement policy for the trace cache and memory "
             "hierarchy (default lru; trrip adds loop-aware static "
             "temperature hints)")


def _apply_policy(config: SimConfig, args) -> SimConfig:
    """Apply the ``--policy`` knob to a built config (no-op for lru,
    the seed-identical default)."""
    policy = getattr(args, "policy", "lru")
    if policy == "lru":
        return config
    from dataclasses import replace
    return replace(
        config,
        trace_cache=replace(config.trace_cache, policy=policy),
        hierarchy=replace(config.hierarchy, policy=policy))


def _add_exec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation grid "
                             "(default 1: in-process)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed result cache; warm "
                             "entries replay without simulating")


def _add_telemetry_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry-out", metavar="FILE.jsonl",
                        help="append structured telemetry events to "
                             "FILE.jsonl")


def _make_telemetry(args):
    """A Telemetry session per *args*, with an optional JSONL sink.

    Returns ``(telemetry, sink)``; *sink* is None without
    ``--telemetry-out``.
    """
    from repro.telemetry import Telemetry
    telemetry = Telemetry()
    sink = None
    if getattr(args, "telemetry_out", None):
        sink = telemetry.attach_jsonl(args.telemetry_out)
    return telemetry, sink


def _close_telemetry(telemetry, sink) -> None:
    if sink is not None:
        telemetry.close()
        print(f"wrote {sink.written} telemetry events to {sink.path}")


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
    program = workloads.build(args.benchmark, args.scale)
    config = _apply_policy(
        SimConfig.paper(_opt_config(args.opts), args.fill_latency), args)
    telemetry = sink = None
    if args.telemetry_out:
        telemetry, sink = _make_telemetry(args)
    result = Simulator(config, telemetry=telemetry).run(
        program, args.benchmark, args.opts)
    print(result.summary())
    cov = result.coverage.as_percentages(result.instructions)
    print(f"transformed: {cov['total']:.1f}% "
          f"(moves {cov['moves']:.1f}, reassoc {cov['reassoc']:.1f}, "
          f"scaled {cov['scaled']:.1f})")
    print(f"mispredict rate: {100 * result.mispredict_rate:.2f}%   "
          f"segments built: {result.segments_built}")
    _close_telemetry(telemetry, sink)
    return 0


def cmd_profile(args) -> int:
    from repro.telemetry.attribution import render_attribution
    program = workloads.build(args.benchmark, args.scale)
    config = _apply_policy(
        SimConfig.paper(_opt_config(args.opts), args.fill_latency), args)
    telemetry, sink = _make_telemetry(args)
    result = Simulator(config, telemetry=telemetry).run(
        program, args.benchmark, args.opts)
    print(result.summary())
    print()
    print(render_attribution(result.attribution, result.cycles))
    print()
    print("telemetry counters")
    for scope, value in result.telemetry.items():
        if isinstance(value, dict):     # histogram snapshot
            value = (f"count={value['count']} mean={value['mean']:.1f} "
                     f"min={value['min']} max={value['max']}")
        print(f"  {scope:42s} {value}")
    print(f"\nevents: {telemetry.events.emitted} emitted")
    _close_telemetry(telemetry, sink)
    return 0


def cmd_trace(args) -> int:
    """Simulate one benchmark with span tracing + the host-time
    profiler; export the timeline (and optionally metrics/profile)."""
    from repro.core.engine import Engine
    from repro.telemetry import Telemetry
    from repro.telemetry.exporters import write_chrome_trace
    from repro.telemetry.hostprof import HostProfiler

    program = workloads.build(args.benchmark, args.scale)
    config = _apply_policy(
        SimConfig.paper(_opt_config(args.opts), args.fill_latency), args)
    if args.verify:
        from dataclasses import replace
        config = replace(config, verify_fill=True)

    telemetry = Telemetry(spans=True)
    archive = telemetry.attach_memory()
    engine = Engine(config, telemetry=telemetry)
    profiler = HostProfiler()
    profiler.attach(engine)
    trace = Simulator(config).trace_program(program)
    result = engine.run(trace, benchmark=args.benchmark,
                        label=args.opts)

    print(result.summary())
    count = write_chrome_trace(
        args.out, telemetry.spans, events=archive.events,
        metadata={"benchmark": args.benchmark, "opts": args.opts,
                  "scale": args.scale, "cycles": result.cycles})
    recorder = telemetry.spans
    print(f"wrote {count} trace events ({len(recorder)} spans on "
          f"tracks: {', '.join(recorder.tracks())}) to {args.out}")
    print("  open in https://ui.perfetto.dev (pid 1 = simulated "
          "cycles, pid 2 = host time)")
    if args.metrics_out:
        from repro.telemetry.exporters import render_openmetrics
        with open(args.metrics_out, "w") as handle:
            handle.write(render_openmetrics(telemetry.registry))
        print(f"wrote OpenMetrics exposition to {args.metrics_out}")
    if args.hostprof_out:
        import json
        with open(args.hostprof_out, "w") as handle:
            json.dump(profiler.to_dict(), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote host-time profile to {args.hostprof_out}")
    print()
    print(profiler.render(f"host-time profile ({args.benchmark})"))
    return 0


def cmd_compare(args) -> int:
    program = workloads.build(args.benchmark, args.scale)

    handle = None
    written = 0
    if args.telemetry_out:
        handle = open(args.telemetry_out, "w")

    def leg_telemetry():
        """A fresh session per leg; all legs share one JSONL file, so
        each leg's counters and attribution stay independent while the
        archive holds the whole comparison."""
        nonlocal written
        if handle is None:
            return None
        from repro.telemetry import Telemetry
        from repro.telemetry.events import JsonlSink
        telemetry = Telemetry()
        telemetry.attach(JsonlSink(handle))
        return telemetry

    simulator = Simulator(
        _apply_policy(SimConfig.paper(fill_latency=args.fill_latency),
                      args),
        telemetry=leg_telemetry())
    trace = simulator.trace_program(program)
    baseline = simulator.run(trace, args.benchmark, "baseline")
    print(baseline.summary())
    sets = ["moves", "reassoc", "scaled_adds", "placement", "all"]
    if args.extended:
        sets += ["cse", "dead_code", "extended"]
    for name in sets:
        config = _apply_policy(
            SimConfig.paper(_opt_config(name), args.fill_latency), args)
        result = Simulator(config, telemetry=leg_telemetry()).run(
            trace, args.benchmark, name)
        print(f"  {name:12s} IPC {result.ipc:5.2f}  "
              f"({result.improvement_over(baseline):+5.1f}%)")
    if handle is not None:
        handle.close()
        print(f"wrote telemetry for all legs to {args.telemetry_out}")
    return 0


def _grid_runner(args):
    """An ExperimentRunner on the execution service, with the paper
    grid prefetched (through the pool with ``--jobs N``, replayed from
    ``--cache-dir`` when warm)."""
    from repro.exec.grid import paper_grid
    from repro.harness import ExperimentRunner
    runner = ExperimentRunner(scale=args.scale, jobs=args.jobs,
                              cache_dir=args.cache_dir)
    if args.jobs > 1 or args.cache_dir:
        runner.prefetch(paper_grid(runner.benchmarks))
    return runner


def cmd_figures(args) -> int:
    from repro.harness import figures
    runner = _grid_runner(args)
    if args.svg:
        from repro.harness.svgchart import write_all_figures
        for path in write_all_figures(runner, args.svg):
            print(f"wrote {path}")
        return 0
    wanted = args.only or ["3", "4", "5", "6", "7", "8"]
    generators = {"3": figures.figure3, "4": figures.figure4,
                  "5": figures.figure5, "6": figures.figure6,
                  "7": figures.figure7, "8": figures.figure8}
    for key in wanted:
        print(generators[key](runner).render())
        print()
    return 0


def cmd_tables(args) -> int:
    from repro.harness import tables
    runner = _grid_runner(args)
    print(tables.table1(runner).render())
    print()
    print(tables.table2(runner).render())
    return 0


def cmd_validate(args) -> int:
    from repro.workloads.validate import validate_benchmark
    names = args.benchmarks or workloads.names()
    unknown = [n for n in names if n not in workloads.names()]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}")
        return 2
    off_target = 0
    for name in names:
        report = validate_benchmark(name, scale=args.scale)
        print(report.render())
        if not report.within():
            off_target += 1
            print("  ^ outside the 3x band")
    print(f"\n{len(names) - off_target}/{len(names)} within the 3x band")
    return 0


def cmd_verify_traces(args) -> int:
    """Replay one or more benchmarks with online segment verification
    and report per-pass/per-rule violation counts; exit nonzero when
    any error-severity violation was found."""
    from dataclasses import replace

    from repro.telemetry import Telemetry
    from repro.telemetry.events import VERIFY_VIOLATION

    names = args.benchmarks or ["compress", "li"]
    unknown = [n for n in names if n not in workloads.names()]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}")
        return 2
    total_errors = 0
    for name in names:
        program = workloads.build(name, args.scale)
        config = replace(
            SimConfig.paper(_opt_config(args.opts), args.fill_latency),
            verify_fill=True,
            verify_each_pass=not args.whole_pipeline)
        telemetry = Telemetry(attribution=False)
        sink = telemetry.attach_memory(kinds=(VERIFY_VIOLATION,))
        result = Simulator(config, telemetry=telemetry).run(
            program, name, args.opts)
        checked = result.telemetry.get(
            "fillunit.verify.segments_checked", 0)
        clean = result.telemetry.get(
            "fillunit.verify.segments_clean", 0)
        counts: dict = {}
        errors = 0
        for event in sink.events:
            key = (event.data["opt"], event.data["rule"],
                   event.data["severity"])
            counts[key] = counts.get(key, 0) + 1
            if event.data["severity"] == "error":
                errors += 1
        status = "CLEAN" if errors == 0 else f"{errors} violations"
        print(f"{name}: {checked} segments verified, {clean} clean "
              f"({args.opts}, "
              f"{'whole-pipeline' if args.whole_pipeline else 'per-pass'}"
              f") -> {status}")
        if counts:
            print(f"  {'pass':12s} {'rule':20s} {'severity':8s} "
                  f"{'count':>6s}")
            for (opt, rule_id, severity), n in sorted(counts.items()):
                print(f"  {opt:12s} {rule_id:20s} {severity:8s} {n:6d}")
            samples = 0
            for event in sink.events:
                if event.data["severity"] != "error":
                    continue
                print(f"    e.g. pc={event.data['start_pc']:#x} "
                      f"[{event.data['opt']}] {event.data['rule']}: "
                      f"{event.data['message']}")
                samples += 1
                if samples >= args.show:
                    break
        total_errors += errors
    return 1 if total_errors else 0


def cmd_analyze(args) -> int:
    """Statically analyze workloads: CFG/loop shape, fill-unit
    opportunity bounds, and lint findings. Optionally compare lint
    counts against a checked-in baseline and cross-check the dynamic
    optimizers against the static opportunity oracle; exits nonzero
    on lint errors, baseline regressions or oracle violations."""
    import json

    from repro.analysis.static import analyze_program
    from repro.core.export import ANALYSIS_SCHEMA_VERSION, analysis_to_dict

    names = args.benchmarks or workloads.names()
    unknown = [n for n in names if n not in workloads.names()]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}")
        return 2

    reports = {}
    failures = []
    for name in names:
        program = workloads.build(name, args.scale)
        report = analyze_program(program, name,
                                 max_shift=args.max_shift)
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

    def _bench_payload(report):
        return {
            "lint": {"errors": report.lint_rule_counts("error"),
                     "warnings": report.lint_rule_counts("warning")},
            "sites": report.static_bounds(),
        }

    baseline_payload = {
        "schema": ANALYSIS_SCHEMA_VERSION,
        "scale": args.scale,
        "benchmarks": {name: _bench_payload(report)
                       for name, report in reports.items()},
    }
    if args.write_baseline:
        with open(args.write_baseline, "w") as handle:
            json.dump(baseline_payload, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote baseline for {len(reports)} benchmarks to "
              f"{args.write_baseline}")
    elif args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        if baseline.get("scale") != args.scale:
            print(f"baseline was recorded at scale "
                  f"{baseline.get('scale')} but this run used "
                  f"{args.scale}; re-run with the matching --scale")
            return 2
        for name, report in reports.items():
            recorded = baseline.get("benchmarks", {}).get(name)
            if recorded is None:
                print(f"  {name}: not in baseline (new benchmark?)")
                continue
            old_lint = recorded.get("lint", {})
            for key, severity in (("errors", "error"),
                                  ("warnings", "warning")):
                old_counts = old_lint.get(key, {})
                new_counts = report.lint_rule_counts(severity)
                for rule in sorted(set(new_counts) | set(old_counts)):
                    new_n = new_counts.get(rule, 0)
                    old_n = old_counts.get(rule, 0)
                    if new_n > old_n:
                        failures.append(
                            f"{name}: lint {severity} rule '{rule}' "
                            f"regressed {old_n} -> {new_n}")
            old_sites = recorded.get("sites", {})
            new_sites = report.static_bounds()
            drift = {k: (old_sites.get(k), v)
                     for k, v in new_sites.items()
                     if old_sites.get(k) != v}
            if drift:
                print(f"  {name}: site counts drifted vs baseline: "
                      f"{drift} (informational)")

    if args.cross_check:
        from repro.errors import ConfigError
        from repro.harness.crosscheck import cross_check
        config = SimConfig.paper(_opt_config(args.opts),
                                 args.fill_latency)
        print()
        for name in names:
            program = workloads.build(name, args.scale)
            trace = Simulator(config).trace_program(program)
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
    from repro.machine.executor import Executor
    with open(args.file) as handle:
        source = handle.read()
    program = assemble(source, name=args.file)
    trace = Executor(program).run(max_instructions=args.max_instructions)
    print(f"{args.file}: {len(trace)} committed instructions, "
          f"output {trace.output}")
    if args.simulate:
        config = SimConfig.paper(_opt_config(args.opts),
                                 args.fill_latency)
        result = Simulator(config).run(trace, args.file, args.opts)
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

    p_run = sub.add_parser("run", help="simulate one benchmark")
    p_run.add_argument("benchmark", choices=workloads.names())
    _add_common(p_run)
    _add_telemetry_out(p_run)
    p_run.set_defaults(func=cmd_run)

    p_prof = sub.add_parser(
        "profile", help="simulate with cycle attribution and counters")
    p_prof.add_argument("benchmark", choices=workloads.names())
    _add_common(p_prof)
    _add_telemetry_out(p_prof)
    p_prof.set_defaults(func=cmd_profile)

    p_trace = sub.add_parser(
        "trace",
        help="simulate with span tracing; export a Perfetto timeline")
    p_trace.add_argument("benchmark", choices=workloads.names())
    _add_common(p_trace)
    p_trace.add_argument("--out", metavar="FILE.json",
                         default="trace.json",
                         help="Chrome trace-event output file "
                              "(default trace.json)")
    p_trace.add_argument("--metrics-out", metavar="FILE.prom",
                         help="also write the metric registry in "
                              "OpenMetrics text exposition format")
    p_trace.add_argument("--hostprof-out", metavar="FILE.json",
                         help="also write the host-time profile as JSON "
                              "(render with tools/hostprof_report.py)")
    p_trace.add_argument("--verify", default=True,
                         action=argparse.BooleanOptionalAction,
                         help="run online segment verification so "
                              "verify spans appear (default on)")
    p_trace.set_defaults(func=cmd_trace)

    p_cmp = sub.add_parser("compare",
                           help="baseline vs each optimization")
    p_cmp.add_argument("benchmark", choices=workloads.names())
    p_cmp.add_argument("--scale", type=float, default=0.5)
    p_cmp.add_argument("--fill-latency", type=int, default=5)
    p_cmp.add_argument("--extended", action="store_true",
                       help="also run the future-work passes")
    p_cmp.add_argument("--policy", default="lru",
                       choices=["lru", "srrip", "trrip"],
                       help="replacement policy for every leg "
                            "(default lru)")
    _add_telemetry_out(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_fig = sub.add_parser("figures", help="regenerate figures 3-8")
    p_fig.add_argument("--scale", type=float, default=0.5)
    p_fig.add_argument("--only", nargs="*",
                       choices=["3", "4", "5", "6", "7", "8"])
    p_fig.add_argument("--svg", metavar="DIR",
                       help="write figures as SVG files into DIR")
    _add_exec(p_fig)
    p_fig.set_defaults(func=cmd_figures)

    p_tab = sub.add_parser("tables", help="regenerate tables 1-2")
    p_tab.add_argument("--scale", type=float, default=0.5)
    _add_exec(p_tab)
    p_tab.set_defaults(func=cmd_tables)

    p_val = sub.add_parser("validate",
                           help="score workload fingerprints vs Table 2")
    p_val.add_argument("benchmarks", nargs="*", metavar="BENCH")
    p_val.add_argument("--scale", type=float, default=0.3)
    p_val.set_defaults(func=cmd_validate)

    p_ver = sub.add_parser(
        "verify-traces",
        help="replay benchmarks with online segment verification")
    p_ver.add_argument("benchmarks", nargs="*", metavar="BENCH",
                       help="benchmarks to verify (default: compress li)")
    _add_common(p_ver)
    p_ver.add_argument("--whole-pipeline", action="store_true",
                       help="verify the composed pipeline instead of "
                            "each pass in isolation")
    p_ver.add_argument("--show", type=int, default=5,
                       help="sample violation messages to print "
                            "(default 5)")
    p_ver.set_defaults(func=cmd_verify_traces)

    p_ana = sub.add_parser(
        "analyze",
        help="static CFG/dataflow analysis, opportunity bounds, lint")
    p_ana.add_argument("benchmarks", nargs="*", metavar="BENCH",
                       help="benchmarks to analyze (default: all)")
    _add_common(p_ana)
    p_ana.add_argument("--max-shift", type=int, default=3,
                       help="largest SLL amount counted as a scaled-add "
                            "opportunity (default 3)")
    p_ana.add_argument("--json", metavar="FILE",
                       help="write full analysis reports to FILE")
    p_ana.add_argument("--baseline", metavar="FILE",
                       help="fail if lint counts regress vs this "
                            "baseline JSON")
    p_ana.add_argument("--write-baseline", metavar="FILE",
                       help="record the current lint/site counts as "
                            "the new baseline")
    p_ana.add_argument("--cross-check", action="store_true",
                       help="simulate each benchmark and check dynamic "
                            "transformed PCs against the static bounds")
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
    except ReproError as err:
        print(f"repro: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
