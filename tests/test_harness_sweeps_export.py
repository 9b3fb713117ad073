"""Sweep and export facility tests."""

import pytest

from repro.harness.experiment import ExperimentRunner
from repro.core.export import (diff_results, dump_results,
                               load_results, result_from_dict,
                               result_to_dict)
from repro.harness import sweeps

BENCHES = ["compress"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=0.1, benchmarks=BENCHES)


def test_fill_latency_sweep_structure(runner):
    result = sweeps.sweep_fill_latency(runner, BENCHES, points=(1, 10))
    assert result.points == [1, 10]
    assert set(result.rows) == set(BENCHES)
    imps = result.improvements("compress")
    assert len(imps) == 2
    # latency tolerance: the two points are close
    assert abs(imps[0] - imps[1]) < 6.0
    assert "Sweep" in result.render()


def test_bypass_penalty_sweep_monotone_opportunity(runner):
    result = sweeps.sweep_bypass_penalty(runner, BENCHES, points=(0, 2))
    zero, expensive = result.mean_improvements()
    # a costlier bypass network gives the optimizations more to win
    assert expensive >= zero - 1.0


def test_window_sweep_runs(runner):
    result = sweeps.sweep_window(runner, BENCHES, points=(64, 256))
    assert all(len(pairs) == 2 for pairs in result.rows.values())


def test_tc_capacity_sweep_runs(runner):
    result = sweeps.sweep_trace_cache_size(runner, BENCHES,
                                           points=(64, 512))
    base_small = result.rows["compress"][0][0]
    base_large = result.rows["compress"][1][0]
    assert base_small > 0 and base_large > 0


# --- export -----------------------------------------------------------

def test_result_roundtrip(runner):
    original = runner.baseline("compress")
    rebuilt = result_from_dict(result_to_dict(original))
    assert rebuilt == original
    assert rebuilt.ipc == original.ipc


def test_dump_and_load(tmp_path, runner):
    path = tmp_path / "results.json"
    results = [runner.baseline("compress")]
    dump_results(results, str(path))
    loaded = load_results(str(path))
    assert loaded == results


def test_schema_version_checked():
    with pytest.raises(ValueError):
        result_from_dict({"schema": 999})


def test_diff_results(runner):
    base = runner.baseline("compress")
    assert diff_results(base, base) is None
    import dataclasses
    slower = dataclasses.replace(base, cycles=base.cycles * 2)
    text = diff_results(base, slower)
    assert text is not None and "-50.0%" in text


def test_diff_rejects_mismatched_experiments(runner):
    import dataclasses
    base = runner.baseline("compress")
    other = dataclasses.replace(base, benchmark="tex")
    with pytest.raises(ValueError):
        diff_results(base, other)


def test_checkpoint_sweep_monotone(runner):
    result = sweeps.sweep_checkpoints(runner, BENCHES, points=(2, 32))
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
