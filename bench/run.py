"""The repo benchmark: four closed-loop workloads, end-to-end and per layer.

Usage (from the repo root)::

    python3 bench/run.py                         # all four workloads
    python3 bench/run.py --workload suite --seed 3 --out runs.json
    python3 bench/run.py --workload grid --trace 1     # per-layer run
    python3 bench/compare.py before.json after.json

One workload run is one process: a single caller issues each op after
the previous one returns, with no threads or worker pool. It times
calls into public entry points with tracing off, checks every output
against ``goldens.json`` and prints every end-to-end metric by name
and unit; the last stdout line is the run's JSON result. With several
workloads or ``--runs`` each run gets its own fresh child process, one
after another. ``--trace 1`` runs the ops untraced and then again
traced, and reports the per-layer metrics instead (see ``tracing.py``).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from spec import ROOT, load_spec, quantile, tail_p  # noqa: E402

GOLDENS = ROOT / "bench" / "goldens.json"
OUT_DIR = ROOT / ".bench_out"
#: set-up is measured this many times per run (this process plus
#: fresh children) and reported as the median
SETUP_SAMPLES = 3
#: iterations of the host-speed reference loop, and its wall seconds
#: on the calibration host (a 2-core x86-64 VM) when nothing contends
REF_ITERS = 40_000
REF_CALM_S = 0.005


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop that touches nothing in
    ``src/``: the host's speed right now.

    The calibration host runs other tenants' work on shared cores, which
    slows every process by up to 1.6x for seconds at a time. Each op's
    wall is scaled by ``REF_CALM_S`` over the loop's wall measured on
    either side of it, so times read as on the calm host; a change to
    the simulator still moves them one for one. The loop mixes integer
    work with dict and list access, as the simulator does.
    """
    start = time.perf_counter()
    table = {i: [i, -i] for i in range(256)}
    acc = 0
    for i in range(REF_ITERS):
        pair = table[i & 255]
        acc += pair[i & 1] + (i & 7)
        pair[0] = acc & 1023
    return time.perf_counter() - start


class OpRecord:
    __slots__ = ("key", "wall", "ref", "instructions", "cycles",
                 "problems")

    def __init__(self, key: str) -> None:
        self.key = key
        self.wall = 0.0
        self.ref = 0.0
        self.instructions = 0
        self.cycles = None
        self.problems: list = []

    @property
    def scaled(self) -> float:
        """The wall as on the calm host (see ``reference_s``)."""
        return self.wall * REF_CALM_S / self.ref


def timed_op(workload, key: str, tracer) -> OpRecord:
    """One op: timed, then checked. Its outcome dies on return, so the
    next op starts from the same heap whatever ran before it, as in a
    fresh ``repro run`` process (garbage is collected first)."""
    record = OpRecord(key)
    gc.collect()
    record.ref = reference_s()
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op(key)
        else:
            out = tracer.run_op(workload.op, key)
        record.wall = time.perf_counter() - start
        record.instructions = out.result.instructions
        record.cycles = out.result.cycles
        record.problems = workload.check(key, out)
    except Exception as exc:
        record.wall = time.perf_counter() - start
        record.problems = [f"{type(exc).__name__}: {exc}"]
        traceback.print_exc(file=sys.stderr)
    return record


def measure(workload, order, tracer=None) -> list:
    """Run every op of *order* (a list of passes) once, in order; time
    each, check each, and never stop on a failed op."""
    records = []
    for pass_keys in order:
        workload.begin_pass()
        in_pass = {}
        for key in pass_keys:
            record = timed_op(workload, key, tracer)
            records.append(record)
            in_pass[key] = record
        for key, problem in workload.end_pass().items():
            in_pass[key].problems.append(problem)
    by_key: dict = {}
    for record in records:
        by_key.setdefault(record.key, []).append(record)
    for key, problem in workload.finish().items():
        for record in by_key.get(key, ()):
            record.problems.append(problem)
    refs = [record.ref for record in records] + [reference_s()]
    for i, record in enumerate(records):
        record.ref = (refs[i] + refs[i + 1]) / 2
    return records


def op_stats(records: list) -> dict:
    """Timing over the ops that returned a result (a wrong result is
    still work done; an op that raised has no meaningful time).

    Every pass runs the same ops in the same order, so an op recurs
    once per pass in the same context. Its time is the median of its
    scaled walls over the passes, which filters out a burst of host
    contention that the reference loop missed.
    """
    ok = [r for r in records if r.cycles is not None]
    if not ok:
        raise RuntimeError("every op raised; nothing to time")
    by_key: dict = {}
    for record in ok:
        by_key.setdefault(record.key, []).append(record.scaled)
    median = {key: statistics.median(v) for key, v in by_key.items()}
    walls = [median[r.key] for r in ok]
    raw = [r.wall for r in ok]
    instrs = sum(r.instructions for r in ok)
    p = tail_p(len(records))
    return {
        "sim_kips": instrs / sum(walls) / 1000.0,
        "op_p50_ms": quantile(walls, 0.5) * 1000.0,
        "op_tail_ms": quantile(walls, p) * 1000.0,
        "tail_p": p,
        "raw_sim_kips": instrs / sum(raw) / 1000.0,
        "raw_op_p50_ms": quantile(raw, 0.5) * 1000.0,
        "ref_ms": quantile([r.ref for r in ok], 0.5) * 1000.0,
    }


def set_up(workload) -> None:
    """The inputs the ops replay and one untimed warm-up op: with the
    imports, everything before the first timed op."""
    workload.prepare()
    workload.begin_pass()
    workload.op(workload.base_ops()[0])
    workload.close()


def child_setup_s(args) -> float:
    """Set-up seconds of a fresh process doing this run's set-up."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--goldens", str(args.goldens),
           "--setup-only"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                          timeout=120, text=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_one(args, spec: dict) -> dict:
    """One workload run in this process; returns its result record."""
    import loads
    with open(args.goldens) as handle:
        goldens = json.load(handle).get(args.workload, {})
    OUT_DIR.mkdir(exist_ok=True)
    workload = loads.WORKLOADS[args.workload](goldens, OUT_DIR)
    set_up(workload)
    setup_wall = time.perf_counter() - T0
    setup_s = setup_wall * REF_CALM_S / statistics.median(
        reference_s() for _ in range(3))
    if args.setup_only:
        return {"setup_s": setup_s}

    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = args.passes or loads.passes_for(workload, seconds)
    order = loads.op_order(workload, args.seed, passes)
    trace_file = None
    try:
        records = measure(workload, order)
        plain = op_stats(records)
        if args.trace:
            metrics, traced, trace_file = traced_phase(args, workload,
                                                       order, plain)
            records += traced
        else:
            samples = [setup_s] + [child_setup_s(args)
                                   for _ in range(SETUP_SAMPLES - 1)]
            metrics = {
                "sim_kips": plain["sim_kips"],
                "op_p50_ms": plain["op_p50_ms"],
                "op_tail_ms": plain["op_tail_ms"],
                "setup_s": statistics.median(samples),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        workload.close()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    failed = sum(1 for r in records if r.problems)
    outputs = {}
    for record in records:
        outputs.setdefault(record.key, record.cycles)
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": passes,
        "tail_p": plain["tail_p"],
        "order": [key for keys in order for key in keys],
        "walls_ms": [r.scaled * 1000.0 for r in records],
        "refs_ms": [r.ref * 1000.0 for r in records],
        "outputs": outputs,
        "problems": {f"{i}:{r.key}": r.problems
                     for i, r in enumerate(records) if r.problems},
        "correct": failed == 0, "attempted": len(records),
        "failed": failed, "trace_file": trace_file,
        "raw": {"setup_s": setup_wall, "sim_kips": plain["raw_sim_kips"],
                "op_p50_ms": plain["raw_op_p50_ms"],
                "ref_ms": plain["ref_ms"]},
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def traced_phase(args, workload, order, plain: dict):
    """The same ops again under the tracer, then the observer probe."""
    from tracing import Tracer, layer_metrics, observer_probe
    tracer = Tracer()
    tracer.install()
    try:
        workload.prepare()
        records = measure(workload, order, tracer)
    finally:
        tracer.uninstall()
    traced = op_stats(records)
    probe = observer_probe(*workload.probe_inputs())
    speed = REF_CALM_S / statistics.median(r.ref for r in records)
    metrics = layer_metrics(tracer, plain["sim_kips"], traced["sim_kips"],
                            probe, speed)
    trace_dir = os.path.abspath(args.trace_dir)
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir,
                        f"{args.workload}-seed{args.seed}.trace.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed})
    print(f"wrote {path}", file=sys.stderr)
    return metrics, records, path


def print_run(run: dict) -> None:
    for name, metric in run["metrics"].items():
        print(f"{run['workload']:10s} {name:40s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    tail = "" if run["trace"] else f", tail = p{100 * run['tail_p']:.1f}"
    print(f"{run['workload']:10s} {run['attempted']} ops "
          f"({run['passes']} passes{tail}), {run['failed']} failed")


def run_children(args, spec: dict) -> int:
    """Each (workload, seed) in a fresh child process, one at a time."""
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    runs = []
    OUT_DIR.mkdir(exist_ok=True)
    part = OUT_DIR / f"child-{os.getpid()}.json"
    for i in range(args.runs):
        for name in names:
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed + i),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--goldens",
                   str(args.goldens), "--trace-dir", args.trace_dir,
                   "--out", str(part)]
            if args.passes:
                cmd += ["--passes", str(args.passes)]
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                           timeout=600, cwd=ROOT)
            with open(part) as handle:
                run = json.load(handle)["runs"][0]
            part.unlink()
            print_run(run)
            runs.append(run)
    if args.out:
        write_runs(args.out, runs)
    return 0


def write_runs(path, runs: list) -> None:
    with open(path, "w") as handle:
        json.dump({"runs": runs}, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the ops; never changes the programs")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="run length; fixes the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED, SEED+1, ...")
    parser.add_argument("--out", metavar="FILE.json",
                        help="write every run's result record here")
    parser.add_argument("--trace-dir", default=str(OUT_DIR / "trace"),
                        help="where traced runs write Chrome traces")
    parser.add_argument("--passes", type=int,
                        help="override the pass count (tests)")
    parser.add_argument("--goldens", default=str(GOLDENS),
                        help="golden cycles file (tests substitute one)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload is None or args.runs > 1:
        return run_children(args, spec)
    run = run_one(args, spec)
    if not args.setup_only:
        print_run(run)
        if args.out:
            write_runs(args.out, [run])
        run = {key: run[key] for key in
               ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
