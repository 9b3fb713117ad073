"""Sweep and export facility tests."""

import pytest

from repro.core.export import diff_results, result_from_dict, result_to_dict
from repro.exec.grid import opt_job
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig
from repro.harness import sweeps

BENCHES = ["compress"]


@pytest.fixture(scope="module")
def service():
    return ExecutionService(scale=0.1)


def test_fill_latency_sweep_structure(service):
    result = sweeps.sweep_fill_latency(service, BENCHES, points=(1, 10))
    assert result.points == [1, 10]
    assert set(result.rows) == set(BENCHES)
    imps = result.improvements("compress")
    assert len(imps) == 2
    # latency tolerance: the two points are close
    assert abs(imps[0] - imps[1]) < 6.0
    assert "Sweep" in result.render()


def test_bypass_penalty_sweep_monotone_opportunity(service):
    result = sweeps.sweep_bypass_penalty(service, BENCHES, points=(0, 2))
    zero, expensive = result.mean_improvements()
    # a costlier bypass network gives the optimizations more to win
    assert expensive >= zero - 1.0


def test_window_sweep_runs(service):
    result = sweeps.sweep_window(service, BENCHES, points=(64, 256))
    assert all(len(pairs) == 2 for pairs in result.rows.values())


def test_tc_capacity_sweep_runs(service):
    result = sweeps.sweep_trace_cache_size(service, BENCHES,
                                           points=(64, 512))
    base_small = result.rows["compress"][0][0]
    base_large = result.rows["compress"][1][0]
    assert base_small > 0 and base_large > 0


# --- export -----------------------------------------------------------

def test_result_roundtrip(service):
    original = service.run(opt_job("compress", OptimizationConfig.none()))
    rebuilt = result_from_dict(result_to_dict(original))
    assert rebuilt == original
    assert rebuilt.ipc == original.ipc


def test_schema_version_checked():
    with pytest.raises(ValueError):
        result_from_dict({"schema": 999})


def test_diff_results(service):
    base = service.run(opt_job("compress", OptimizationConfig.none()))
    assert diff_results(base, base) is None
    import dataclasses
    # a one-cycle drift is reported: the compare is exact, not a
    # tolerance on IPC.
    slower = dataclasses.replace(base, cycles=base.cycles + 1)
    assert diff_results(base, slower) == (
        f"compress[baseline]:\n  cycles: {base.cycles} -> "
        f"{base.cycles + 1}")
    changed = dataclasses.replace(
        base, coverage=dataclasses.replace(base.coverage, moves=7),
        pass_totals={"moves": 3})
    assert diff_results(base, changed).splitlines()[1:] == [
        "  coverage.moves: 0 -> 7", "  pass_totals.moves: - -> 3"]


def test_diff_rejects_mismatched_experiments(service):
    import dataclasses
    base = service.run(opt_job("compress", OptimizationConfig.none()))
    other = dataclasses.replace(base, benchmark="tex")
    with pytest.raises(ValueError):
        diff_results(base, other)


def test_checkpoint_sweep_monotone(service):
    result = sweeps.sweep_checkpoints(service, BENCHES, points=(2, 32))
    scarce_pairs = [pairs[0] for pairs in result.rows.values()]
    plenty_pairs = [pairs[1] for pairs in result.rows.values()]
    # more checkpoints never slow the baseline machine
    assert all(p[0] >= s[0] - 1e-9
               for s, p in zip(scarce_pairs, plenty_pairs))


def test_analysis_report_roundtrip():
    from repro import workloads
    from repro.analysis.static import analyze_program
    from repro.core.export import analysis_from_dict, analysis_to_dict

    report = analyze_program(workloads.build("compress", 0.2),
                             "compress")
    payload = analysis_to_dict(report)
    assert payload["derived"]["static_bounds"] == report.static_bounds()
    rebuilt = analysis_from_dict(payload)
    assert rebuilt == report


def test_analysis_schema_version_checked():
    from repro.core.export import ANALYSIS_SCHEMA_VERSION, analysis_from_dict
    with pytest.raises(ValueError):
        analysis_from_dict({"schema": 999})
    # a key the report does not have is rejected by name, not passed on
    # to the dataclass constructor as a raw TypeError.
    with pytest.raises(ValueError, match="tightened_sites"):
        analysis_from_dict({"schema": ANALYSIS_SCHEMA_VERSION,
                            "benchmark": "compress", "instructions": 0,
                            "blocks": 0, "edges": 0, "loops": 0,
                            "unreachable_blocks": 0,
                            "tightened_sites": []})
