"""Performance-trajectory harness: one number file per code version.

Runs the two anchor benchmarks (compress, li) end to end at the tier-1
scale with the host-time profiler attached and records, per benchmark:

* ``cycles`` — the simulated cycle count (deterministic; compared
  *exactly* against the baseline — any drift is a modelling change,
  not a performance regression);
* ``wall_seconds`` — best-of-N replay wall time;
* ``normalized_wall`` — wall time divided by this machine's score on a
  fixed pure-Python spin loop (``ref_seconds``), so the regression
  gate transfers across machines of different speeds;
* ``stage_shares`` — per-pipeline-stage host-time fractions from the
  :class:`~repro.telemetry.hostprof.HostProfiler`;
* ``reuse`` — trace-cache/segment reuse statistics (schema 3 adds
  the eviction counters: total and dead — never-rehit — evictions);
* ``replay`` (schema 2-3, files recorded while the engine had a
  segment-level timing memo: BENCH_8.json, BENCH_10.json) — memo
  hit/miss counts and speedup; read back but no longer written;
* ``policies`` (schema 3) — one single-repeat run per replacement
  policy (lru/srrip/trrip on both cache layers) recording cycles and
  the per-policy reuse/eviction profile. The ``lru`` leg must match
  the main entry's cycles exactly.

Usage:
    python tools/bench_trajectory.py --out BENCH_10.json
    python tools/bench_trajectory.py --out /tmp/now.json \\
        --check BENCH_10.json --tolerance 0.10

``--check`` exits nonzero when any benchmark's cycle count differs
from the baseline or its normalized wall time regressed by more than
``--tolerance`` (fractional; default 0.10). Schema-1 baselines
(``BENCH_6.json`` and earlier) are still accepted: the gate compares
the fields every schema shares, and never a baseline's replay block.
The pytest wrapper in ``benchmarks/bench_trajectory.py`` runs the
cycle/shape
checks on every benchmark invocation and the wall gate under
``REPRO_BENCH_GATE``.
"""

import argparse
import json
import sys
import time

#: 1 — cycles / wall / stage shares / reuse (BENCH_6.json).
#: 2 — adds the per-benchmark ``replay`` block (BENCH_8.json; no
#:     longer written since the timing memo was retired).
#: 3 — adds eviction counters to ``reuse`` and the per-policy
#:     ``policies`` block (BENCH_10.json).
TRAJECTORY_SCHEMA_VERSION = 3
_READABLE_SCHEMAS = (1, 2, 3)
BENCHMARKS = ("compress", "li")
DEFAULT_SCALE = 0.5
DEFAULT_TOLERANCE = 0.10
#: iterations of the calibration spin loop (fixed: its absolute wall
#: time *is* the machine-speed reference).
_CALIBRATION_ITERS = 400_000


def calibrate(repeats: int = 3) -> float:
    """Best-of-*repeats* wall seconds of a fixed pure-Python loop —
    the machine-speed reference normalized wall times divide by."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_ITERS):
            acc += i & 7
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    assert acc >= 0
    return best


def _timed_runs(trace, name: str, repeats: int):
    """Best-of-*repeats* Engine runs of *trace*; returns
    ``(best_wall, result, profiler, engine)`` of the fastest run."""
    from repro.core.config import SimConfig
    from repro.core.engine import Engine
    from repro.fillunit.opts.base import OptimizationConfig
    from repro.telemetry.hostprof import HostProfiler

    best_wall = None
    result = None
    profiler = None
    engine = None
    for _ in range(repeats):
        # The CLI's default configuration (paper machine, all four
        # published optimizations) — `repro run BENCH` reproduces
        # these cycle counts exactly.
        config = SimConfig.paper(OptimizationConfig.all())
        eng = Engine(config)
        prof = HostProfiler()
        prof.attach(eng)
        start = time.perf_counter()
        res = eng.run(trace, benchmark=name, label="trajectory")
        elapsed = time.perf_counter() - start
        if best_wall is None or elapsed < best_wall:
            best_wall, result, profiler, engine = elapsed, res, prof, eng
        if result.cycles != res.cycles:
            raise AssertionError(
                f"{name}: nondeterministic cycles "
                f"({result.cycles} vs {res.cycles})")
    return best_wall, result, profiler, engine


def _policy_block(trace, program, name: str,
                  lru_cycles: int) -> dict:
    """The schema-3 per-policy reuse profile: one run per
    replacement policy, both cache layers switched together. The
    program rides along so TRRIP's static temperature hints install
    exactly as they do under ``repro run --policy trrip``."""
    import dataclasses

    from repro.cache.policy import POLICY_NAMES
    from repro.core.config import SimConfig
    from repro.core.engine import Engine
    from repro.fillunit.opts.base import OptimizationConfig

    block = {}
    for policy in POLICY_NAMES:
        config = SimConfig.paper(OptimizationConfig.all())
        config = dataclasses.replace(
            config,
            trace_cache=dataclasses.replace(config.trace_cache,
                                            policy=policy),
            hierarchy=dataclasses.replace(config.hierarchy,
                                          policy=policy))
        eng = Engine(config)
        res = eng.run(trace, benchmark=name, label=f"policy-{policy}",
                      program=program)
        stats = eng.trace_cache.stats
        if policy == "lru" and res.cycles != lru_cycles:
            raise AssertionError(
                f"{name}: lru policy leg diverged from the main run "
                f"({res.cycles} vs {lru_cycles}); TrueLRU must be "
                f"bit-for-bit the seed behaviour")
        block[policy] = {
            "cycles": res.cycles,
            "tc_hit_rate": round(stats.hit_rate, 4),
            "tc_evictions": stats.evictions,
            "tc_dead_evictions": stats.dead_evictions,
            "l1d_evictions": eng.hierarchy.l1d.stats.evictions,
            "l2_evictions": eng.hierarchy.l2.stats.evictions,
        }
    return block


def measure_benchmark(name: str, scale: float = DEFAULT_SCALE,
                      repeats: int = 3) -> dict:
    """One benchmark's trajectory entry (see module docstring)."""
    from repro import workloads
    from repro.machine.executor import Executor

    program = workloads.build(name, scale)
    trace = Executor(program).run()
    best_wall, result, profiler, engine = _timed_runs(trace, name,
                                                      repeats)
    stats = engine.trace_cache.stats
    fill = engine.fill_unit.stats
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "wall_seconds": round(best_wall, 6),
        "stage_shares": {
            scope: round(share, 4)
            for scope, share in profiler.shares("stage.").items()
        },
        "reuse": {
            "tc_lookups": stats.lookups,
            "tc_hits": stats.hits,
            "tc_hit_rate": round(stats.hit_rate, 4),
            "tc_evictions": stats.evictions,
            "tc_dead_evictions": stats.dead_evictions,
            "segments_built": fill.segments_built,
            "segments_deduped": fill.segments_deduped,
        },
        "policies": _policy_block(trace, program, name, result.cycles),
    }


def measure_all(scale: float = DEFAULT_SCALE, repeats: int = 3) -> dict:
    ref_seconds = calibrate()
    benchmarks = {}
    for name in BENCHMARKS:
        entry = measure_benchmark(name, scale, repeats)
        entry["normalized_wall"] = round(
            entry["wall_seconds"] / ref_seconds, 4)
        benchmarks[name] = entry
    return {
        "schema": TRAJECTORY_SCHEMA_VERSION,
        "scale": scale,
        "ref_seconds": round(ref_seconds, 6),
        "benchmarks": benchmarks,
    }


def check_against(current: dict, baseline: dict,
                  tolerance: float = DEFAULT_TOLERANCE) -> list:
    """Regression findings of *current* vs *baseline* (empty == pass).

    Cycle counts must match exactly; normalized wall time may grow by
    at most *tolerance* (fractional). Improvements always pass.

    Schema-1 baselines are accepted: only the fields every schema
    shares are compared (a baseline's ``replay`` block is never
    gated — it was reporting, not a regression contract).
    """
    failures = []
    base_schema = baseline.get("schema")
    if (base_schema not in _READABLE_SCHEMAS
            or base_schema > current.get("schema", 0)):
        failures.append(
            f"unreadable baseline schema {base_schema!r} "
            f"(current {current.get('schema')!r}; this tool reads "
            f"schemas {_READABLE_SCHEMAS})")
        return failures
    if baseline.get("scale") != current.get("scale"):
        failures.append(
            f"scale mismatch: baseline {baseline.get('scale')} vs "
            f"current {current.get('scale')}; re-run with --scale "
            f"{baseline.get('scale')}")
        return failures
    for name, base in baseline.get("benchmarks", {}).items():
        now = current["benchmarks"].get(name)
        if now is None:
            failures.append(f"{name}: missing from current run")
            continue
        if now["cycles"] != base["cycles"]:
            failures.append(
                f"{name}: cycle count drifted {base['cycles']} -> "
                f"{now['cycles']} (simulated time must be bit-for-bit "
                f"stable; if the model intentionally changed, refresh "
                f"the baseline)")
        limit = base["normalized_wall"] * (1.0 + tolerance)
        if now["normalized_wall"] > limit:
            failures.append(
                f"{name}: normalized wall time regressed "
                f"{base['normalized_wall']:.3f} -> "
                f"{now['normalized_wall']:.3f} "
                f"(> {100 * tolerance:.0f}% over baseline)")
    return failures


def render(payload: dict) -> str:
    lines = [f"perf trajectory (scale {payload['scale']}, "
             f"ref {payload['ref_seconds'] * 1000:.1f} ms)"]
    for name, entry in payload["benchmarks"].items():
        lines.append(
            f"  {name:10s} cycles={entry['cycles']:8d}  "
            f"wall={entry['wall_seconds'] * 1000:7.1f} ms  "
            f"normalized={entry['normalized_wall']:6.2f}  "
            f"tc_hit={100 * entry['reuse']['tc_hit_rate']:.1f}%")
        top = sorted(entry["stage_shares"].items(),
                     key=lambda kv: -kv[1])[:3]
        lines.append("  " + " " * 10 + " hottest stages: " + ", ".join(
            f"{scope.split('.', 1)[1]} {100 * share:.0f}%"
            for scope, share in top))
        policies = entry.get("policies")
        if policies:
            lines.append("  " + " " * 10 + " policies: " + "  ".join(
                f"{policy} {p['cycles']}cy "
                f"tc={100 * p['tc_hit_rate']:.1f}% "
                f"ev={p['tc_evictions']}/{p['tc_dead_evictions']}"
                for policy, p in policies.items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", metavar="FILE.json", required=True,
                        help="write the trajectory file here")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--repeats", type=int, default=3,
                        help="replays per benchmark; best is kept")
    parser.add_argument("--check", metavar="BASELINE.json",
                        help="fail on regression vs this baseline")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional normalized-wall growth "
                             "(default 0.10)")
    args = parser.parse_args(argv)

    payload = measure_all(args.scale, args.repeats)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(render(payload))
    print(f"wrote {args.out}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_against(payload, baseline, args.tolerance)
        if failures:
            print(f"\nFAIL vs {args.check}:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"no regression vs {args.check} "
              f"(tolerance {100 * args.tolerance:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
