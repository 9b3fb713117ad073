"""Result and analysis-report export tests."""

import pytest

from repro.core.export import (
    SCHEMA_VERSION,
    diff_results,
    result_from_dict,
    result_to_dict,
)
from repro.exec.grid import opt_job
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig


@pytest.fixture(scope="module")
def service():
    return ExecutionService(scale=0.1)


def test_result_roundtrip(service):
    original = service.run(opt_job("compress", OptimizationConfig.none()))
    rebuilt = result_from_dict(result_to_dict(original))
    assert rebuilt == original
    assert rebuilt.ipc == original.ipc
    assert rebuilt.attribution == original.attribution != {}


def test_each_count_stored_once(service):
    """The dict holds each count once: the typed counters and the
    coverage are read from their telemetry scopes, not stored."""
    result = service.run(opt_job("compress", OptimizationConfig.all()))
    payload = result_to_dict(result)
    assert payload["schema"] == SCHEMA_VERSION == 4
    assert set(payload) == {"benchmark", "config_label", "instructions",
                            "cycles", "telemetry", "attribution",
                            "schema"}
    assert result.tc_hits == payload["telemetry"]["fetch.tc.hits"] > 0
    assert result.coverage.moves == payload["telemetry"][
        "fetch.tc.opt.moves"]


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
        base, telemetry={**base.telemetry, "fetch.tc.opt.moves": 7,
                         "fillunit.opts.moves.moves_marked": 3})
    assert diff_results(base, changed).splitlines()[1:] == [
        "  telemetry.fetch.tc.opt.moves: 0 -> 7",
        "  telemetry.fillunit.opts.moves.moves_marked: - -> 3"]


def test_diff_results_reads_telemetry_and_attribution(service):
    import dataclasses
    base = service.run(opt_job("compress", OptimizationConfig.all()))
    old = dataclasses.replace(
        base, telemetry={**base.telemetry,
                         "rename.checkpoint.stalls": 191},
        attribution={"base": 10, "tc_miss": 2})
    size = dict(old.telemetry["fetch.group.size"])
    size["buckets"] = {**size["buckets"], "5": size["buckets"]["5"] + 1}
    new = dataclasses.replace(
        old,
        telemetry={**old.telemetry, "rename.checkpoint.stalls": 123,
                   "fetch.group.size": {**size, "max": 17},
                   "fetch.tc.hits": old.tc_hits + 1},
        attribution={"base": 9, "tc_miss": 3})
    buckets = old.telemetry["fetch.group.size"]["buckets"]["5"]
    # each count is named once, by its scope
    assert sorted(diff_results(old, new).splitlines()[1:]) == sorted([
        f"  telemetry.fetch.tc.hits: {old.tc_hits} -> {old.tc_hits + 1}",
        "  telemetry.rename.checkpoint.stalls: 191 -> 123",
        f"  telemetry.fetch.group.size.max: {size['max']} -> 17",
        f"  telemetry.fetch.group.size.buckets.5: {buckets} -> "
        f"{buckets + 1}",
        "  attribution.base: 10 -> 9",
        "  attribution.tc_miss: 2 -> 3"])
    only_stalls = dataclasses.replace(
        old, telemetry={**old.telemetry, "rename.checkpoint.stalls": 123})
    assert diff_results(old, only_stalls) is not None


def test_diff_rejects_mismatched_experiments(service):
    import dataclasses
    base = service.run(opt_job("compress", OptimizationConfig.none()))
    other = dataclasses.replace(base, benchmark="tex")
    with pytest.raises(ValueError):
        diff_results(base, other)


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
