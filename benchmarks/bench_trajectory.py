"""Perf-trajectory regression guard over the checked-in BENCH_10.json.

Re-measures the anchor benchmarks with ``tools/bench_trajectory.py``
and holds the current build to the checked-in trajectory file:

* simulated cycle counts must match **exactly** (any drift is a
  modelling change and needs a deliberate baseline refresh);
* per-stage host-time shares must be a sane distribution;
* the normalized wall-time gate (>10% regression fails) runs only
  when ``REPRO_BENCH_GATE`` is set — CI sets it; local runs on busy
  machines skip the wall gate but still check determinism.

Run with ``pytest benchmarks/bench_trajectory.py -s`` or exercise the
same logic as a script via ``tools/bench_trajectory.py --check``.
"""

import importlib.util
import json
import os
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / "BENCH_10.json"

_spec = importlib.util.spec_from_file_location(
    "bench_trajectory_tool", REPO_ROOT / "tools" / "bench_trajectory.py")
_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tool)


def test_trajectory_against_baseline():
    baseline = json.loads(BASELINE.read_text())
    current = _tool.measure_all(scale=baseline["scale"], repeats=2)
    print("\n" + _tool.render(current))

    for name, base in baseline["benchmarks"].items():
        now = current["benchmarks"][name]
        assert now["cycles"] == base["cycles"], (
            f"{name}: cycles drifted {base['cycles']} -> "
            f"{now['cycles']}; simulated time must be deterministic "
            f"(refresh BENCH_10.json only for deliberate model changes)")
        assert now["instructions"] == base["instructions"]
        assert now["reuse"] == base["reuse"], (
            f"{name}: segment-reuse profile drifted: "
            f"{base['reuse']} -> {now['reuse']}")
        shares = now["stage_shares"]
        assert shares, f"{name}: no stage shares recorded"
        assert abs(sum(shares.values()) - 1.0) < 0.01
        assert set(shares) == set(base["stage_shares"]), (
            f"{name}: stage set changed")
        if "policies" in base:
            for policy, leg in base["policies"].items():
                got = now["policies"][policy]
                assert got["cycles"] == leg["cycles"], (
                    f"{name}/{policy}: cycles drifted "
                    f"{leg['cycles']} -> {got['cycles']}")
                assert got == leg, (
                    f"{name}/{policy}: reuse profile drifted "
                    f"{leg} -> {got}")
            assert (now["policies"]["lru"]["cycles"]
                    == now["cycles"]), (
                f"{name}: lru leg diverged from the main run")

    if os.environ.get("REPRO_BENCH_GATE"):
        failures = _tool.check_against(current, baseline)
        assert not failures, "\n".join(failures)


if __name__ == "__main__":
    test_trajectory_against_baseline()
    print("trajectory guard passed")
