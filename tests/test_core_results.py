"""SimResult property tests."""

import pytest

from repro.core.results import COUNTER_SCOPES, OptCoverage, SimResult


def make(instructions=1000, cycles=500, **telemetry):
    """A result whose telemetry holds *telemetry*, keyed by the typed
    counter names of :data:`COUNTER_SCOPES`."""
    return SimResult(benchmark="b", config_label="c",
                     instructions=instructions, cycles=cycles,
                     telemetry={COUNTER_SCOPES[name]: count
                                for name, count in telemetry.items()})


def test_ipc():
    assert make().ipc == 2.0
    assert make(cycles=0).ipc == 0.0


def test_tc_rates():
    result = make(tc_lookups=100, tc_hits=80, tc_fetched_instrs=900)
    assert result.tc_hit_rate == pytest.approx(0.8)
    assert result.tc_instr_fraction == pytest.approx(0.9)
    empty = make(instructions=0)
    assert empty.tc_instr_fraction == 0.0
    assert empty.tc_hit_rate == 0.0


def test_bypass_fraction():
    result = make(bypass_delayed=250)
    assert result.bypass_delayed_fraction == pytest.approx(0.25)


def test_mispredict_rate():
    result = make(cond_branches=200, mispredicts=10)
    assert result.mispredict_rate == pytest.approx(0.05)
    assert make().mispredict_rate == 0.0


def test_improvement_over():
    base = make(cycles=1000)    # IPC 1.0
    better = make(cycles=800)   # IPC 1.25
    assert better.improvement_over(base) == pytest.approx(25.0)
    zero = make(cycles=0)
    assert better.improvement_over(zero) == 0.0


def test_coverage_percentages():
    cov = OptCoverage(moves=60, reassoc=30, scaled=10, any_opt=90)
    pct = cov.as_percentages(1000)
    assert pct == {"moves": 6.0, "reassoc": 3.0, "scaled": 1.0,
                   "any_opt": 9.0, "total": 9.0}
    # `total` is the legacy alias for `any_opt`
    assert pct["total"] == pct["any_opt"]


def test_coverage_percentages_zero_instructions():
    cov = OptCoverage(moves=60, reassoc=30, scaled=10, any_opt=90)
    zero = cov.as_percentages(0)
    # identical key set to the nonzero case, all values 0.0
    assert zero == {"moves": 0.0, "reassoc": 0.0, "scaled": 0.0,
                    "any_opt": 0.0, "total": 0.0}
    assert set(zero) == set(cov.as_percentages(1000))


def test_summary_fields():
    text = make().summary()
    for token in ("IPC", "cycles", "instrs", "tc=", "bypass="):
        assert token in text
