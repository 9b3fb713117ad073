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


def _diff(old, new):
    """:func:`diff_results` over the two runs' export dicts."""
    return diff_results(result_to_dict(old), result_to_dict(new))


def test_diff_results(service):
    base = service.run(opt_job("compress", OptimizationConfig.none()))
    assert _diff(base, base) is None
    import dataclasses
    # a one-cycle drift is reported: the compare is exact, not a
    # tolerance on IPC.
    slower = dataclasses.replace(base, cycles=base.cycles + 1)
    assert _diff(base, slower) == (
        f"compress[baseline]:\n  cycles: {base.cycles} -> "
        f"{base.cycles + 1}")
    changed = dataclasses.replace(
        base, telemetry={**base.telemetry, "fetch.tc.opt.moves": 7,
                         "fillunit.opts.moves.moves_marked": 3})
    assert _diff(base, changed).splitlines()[1:] == [
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
    assert sorted(_diff(old, new).splitlines()[1:]) == sorted([
        f"  telemetry.fetch.tc.hits: {old.tc_hits} -> {old.tc_hits + 1}",
        "  telemetry.rename.checkpoint.stalls: 191 -> 123",
        f"  telemetry.fetch.group.size.max: {size['max']} -> 17",
        f"  telemetry.fetch.group.size.buckets.5: {buckets} -> "
        f"{buckets + 1}",
        "  attribution.base: 10 -> 9",
        "  attribution.tc_miss: 2 -> 3"])
    only_stalls = dataclasses.replace(
        old, telemetry={**old.telemetry, "rename.checkpoint.stalls": 123})
    assert _diff(old, only_stalls) is not None


def test_diff_rejects_mismatched_experiments(service):
    import dataclasses
    base = service.run(opt_job("compress", OptimizationConfig.none()))
    other = dataclasses.replace(base, benchmark="tex")
    with pytest.raises(ValueError):
        _diff(base, other)


def test_analysis_export_stores_each_fact_once():
    """The analysis dict is the report's fields and its schema: the
    site bounds and lint counts are derived from them, not stored."""
    from dataclasses import asdict

    from repro import workloads
    from repro.analysis.static import analyze_program
    from repro.core.config import SimConfig
    from repro.core.export import ANALYSIS_SCHEMA_VERSION, analysis_to_dict

    report = analyze_program(workloads.build("compress", 0.2),
                             "compress", SimConfig.paper())
    payload = analysis_to_dict(report)
    assert payload.pop("schema") == ANALYSIS_SCHEMA_VERSION == 4
    assert payload == asdict(report)
