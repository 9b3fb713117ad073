"""Online-verification overhead guard.

The segment verifier is an opt-in safety net: with ``verify_fill``
off (the default) the fill unit must not pay anything — no snapshot
clone, no symbolic evaluation, no report bookkeeping. With it on, the
cost rides the fill pipeline, which sits behind retirement and off the
critical path, but the wall-clock price of the *simulation* still has
to stay reasonable or nobody will leave it enabled: the acceptance bar
is under 10% over the unverified replay.

Run with ``pytest benchmarks/bench_verify_overhead.py -s`` or directly
as a script.
"""

import gc
import time
from dataclasses import replace

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.machine.executor import Executor

SCALE = 0.3
REPEATS = 9


def _trace():
    program = workloads.build("compress", SCALE)
    return Executor(program).run()


def _one_replay(trace, config) -> float:
    """Wall time of one replay (model construction excluded; the trace
    is shared). A GC sweep beforehand keeps collection pauses out of
    the timed region."""
    model = Engine(config)
    gc.collect()
    start = time.perf_counter()
    model.run(trace, "compress", "bench")
    return time.perf_counter() - start


def measure() -> dict:
    trace = _trace()
    base_config = SimConfig.paper()
    off_config = replace(base_config, verify_fill=False)
    on_config = replace(base_config, verify_fill=True)
    # Warm-up: the first replays pay import and allocator noise.
    _one_replay(trace, base_config)
    _one_replay(trace, on_config)
    # Interleave the configurations — rotating who goes first each
    # round — so clock-frequency drift and allocator aging hit all of
    # them equally; compare best-of-N.
    best = {"base": None, "off": None, "on": None}
    configs = [("base", base_config), ("off", off_config),
               ("on", on_config)]
    for i in range(REPEATS):
        for key, config in configs[i % 3:] + configs[:i % 3]:
            sample = _one_replay(trace, config)
            if best[key] is None or sample < best[key]:
                best[key] = sample
    t_base, t_off, t_on = best["base"], best["off"], best["on"]
    return {
        "baseline": t_base,
        "verify_off": t_off,
        "verify_on": t_on,
        "off_overhead_pct":
            100.0 * (t_off / t_base - 1.0) if t_base else 0.0,
        "on_overhead_pct":
            100.0 * (t_on / t_base - 1.0) if t_base else 0.0,
    }


def test_verify_overhead(capsys=None):
    stats = measure()
    report = (
        f"replay best-of-{REPEATS}: "
        f"baseline {1000 * stats['baseline']:.1f} ms, "
        f"verify off {1000 * stats['verify_off']:.1f} ms "
        f"({stats['off_overhead_pct']:+.1f}%), "
        f"verify on {1000 * stats['verify_on']:.1f} ms "
        f"({stats['on_overhead_pct']:+.1f}%)")
    print("\n" + report)
    # The guard: with verification off, build_segment must skip the
    # snapshot clone and the checker entirely — the flag check is the
    # whole cost. 3% is measurement noise, not a budget.
    assert stats["off_overhead_pct"] < 3.0, report
    # The acceptance bar for leaving verification on during runs.
    assert stats["on_overhead_pct"] < 10.0, report


if __name__ == "__main__":
    test_verify_overhead()
    print("verify overhead guard passed")
