"""Cycle-accounting tests: the partition must be exact — classes sum
to the run's total cycles, always."""

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.pipeline import PipelineModel
from repro.core.simulator import Simulator
from repro.core.stages.attribution import CycleAccountant
from repro.errors import ConfigError
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.tracing import CommittedTrace
from repro.telemetry import Telemetry
from repro.telemetry.attribution import (
    CYCLE_CLASSES,
    diff_attribution,
    render_attribution,
)
from tests.helpers import run_asm

LOOP = """
main:
    li   $t9, 60
loop:
    addi $t0, $t0, 1
    sll  $t1, $t0, 2
    add  $t2, $t1, $t0
    sw   $t2, 0($sp)
    lw   $t3, 0($sp)
    blt  $t0, $t9, loop
    halt
"""


def run_with_attribution(source=LOOP, config=None):
    _, trace = run_asm(source)
    telemetry = Telemetry()
    model = PipelineModel(config or SimConfig.tiny(), telemetry=telemetry)
    return model.run(trace, "t", "r")


# -- synthetic streams --------------------------------------------------

def test_back_to_back_retires_are_all_base():
    acct = CycleAccountant()
    for cycle in range(1, 11):
        acct.on_retire(fetch=cycle - 1, complete=cycle - 1, retire=cycle)
    attribution = acct.finish(10)
    assert attribution["base"] == 10
    assert sum(attribution.values()) == 10


def test_same_cycle_retires_counted_once():
    acct = CycleAccountant()
    for _ in range(4):
        acct.on_retire(fetch=0, complete=0, retire=1)
    assert acct.finish(1) == dict.fromkeys(CYCLE_CLASSES, 0) | {"base": 1}


def test_frontend_gap_split_newest_first():
    acct = CycleAccountant()
    acct.on_retire(fetch=0, complete=0, retire=1)
    # Next instr fetched at 10: gap of 9 frontend cycles; 3 were an
    # icache round trip (tc miss), 2 redirect, rest starvation.
    acct.on_retire(fetch=10, complete=10, retire=11,
                   recovery=2, fetch_extra=3)
    attribution = acct.finish(11)
    assert attribution["tc_miss"] == 3
    assert attribution["mispredict_recovery"] == 2
    assert attribution["fetch_starved"] == 4
    assert attribution["base"] == 2
    assert sum(attribution.values()) == 11


def test_extra_without_trace_cache_is_fetch_starved():
    acct = CycleAccountant(extra_is_tc_miss=False)
    acct.on_retire(fetch=0, complete=0, retire=1)
    acct.on_retire(fetch=5, complete=5, retire=6, fetch_extra=4)
    attribution = acct.finish(6)
    assert attribution["tc_miss"] == 0
    assert attribution["fetch_starved"] == 4


def test_backend_gap_with_bypass_carve():
    acct = CycleAccountant(bypass_penalty=1)
    acct.on_retire(fetch=0, complete=0, retire=1)
    # fetched immediately, executed for 5 cycles, last operand paid the
    # cross-cluster penalty.
    acct.on_retire(fetch=1, complete=6, retire=7, bypass_penalized=True)
    attribution = acct.finish(7)
    assert attribution["bypass_delay"] == 1
    assert attribution["issue_bound"] == 4
    assert sum(attribution.values()) == 7


def test_recovery_debt_settles_in_backend_gap():
    # The redirect delay hid behind retirement (fetch <= last retire);
    # the refill stall must still be charged to the mispredict.
    acct = CycleAccountant()
    acct.on_retire(fetch=0, complete=4, retire=5)    # 4 issue_bound
    acct.on_retire(fetch=5, complete=10, retire=11, recovery=3)
    attribution = acct.finish(11)
    assert attribution["mispredict_recovery"] == 3
    assert attribution["issue_bound"] == 4 + 2
    assert sum(attribution.values()) == 11


def test_drain_class():
    acct = CycleAccountant()
    acct.on_retire(fetch=0, complete=0, retire=1)
    # completed at 2, retired at 6: 3 commit-backpressure cycles.
    acct.on_retire(fetch=1, complete=2, retire=6)
    attribution = acct.finish(6)
    assert attribution["drain"] == 3


def test_finish_raises_on_lost_cycles():
    acct = CycleAccountant()
    acct.on_retire(fetch=0, complete=0, retire=1)
    with pytest.raises(ConfigError):
        acct.finish(100)


# -- real runs ----------------------------------------------------------

def test_classes_sum_exactly_to_cycles():
    result = run_with_attribution()
    assert set(result.attribution) == set(CYCLE_CLASSES)
    assert sum(result.attribution.values()) == result.cycles
    assert result.attribution["base"] > 0


def test_sum_exact_without_trace_cache():
    config = SimConfig.tiny()
    config.trace_cache_enabled = False
    result = run_with_attribution(config=config)
    assert sum(result.attribution.values()) == result.cycles
    assert result.attribution["tc_miss"] == 0   # no TC to miss


def test_attribution_empty_without_session():
    _, trace = run_asm(LOOP)
    result = PipelineModel(SimConfig.tiny()).run(trace, "t", "r")
    assert result.attribution == {}


def test_telemetry_session_does_not_change_timing():
    """The bit-for-bit requirement: observing a run must not alter it."""
    _, trace = run_asm(LOOP)
    plain = PipelineModel(SimConfig.tiny()).run(trace, "t", "r")
    observed = run_with_attribution()
    assert plain.cycles == observed.cycles
    assert plain.ipc == observed.ipc
    assert plain.mispredicts == observed.mispredicts


def test_empty_trace_has_no_attribution():
    trace = CommittedTrace([], None, [])
    result = PipelineModel(SimConfig.tiny(), telemetry=Telemetry()).run(
        trace, "t", "r")
    assert result.cycles == 0
    assert result.attribution == {}


# -- anchors: the paper config on the seed workloads --------------------

#: exact classes for SimConfig.paper(OptimizationConfig.all()) at scale
#: 0.5 — bypass_delay is the cross-cluster penalty placement removes
#: (Figure 7), mispredict_recovery the stalls promotion avoids.
ANCHOR_ATTRIBUTION = {
    "compress": (16344, {"base": 11723, "fetch_starved": 0,
                         "tc_miss": 273, "mispredict_recovery": 1662,
                         "bypass_delay": 2566, "issue_bound": 120,
                         "drain": 0}),
    "li": (13709, {"base": 8330, "fetch_starved": 0, "tc_miss": 426,
                   "mispredict_recovery": 1488, "bypass_delay": 3405,
                   "issue_bound": 60, "drain": 0}),
}


@pytest.mark.parametrize("name", sorted(ANCHOR_ATTRIBUTION))
def test_anchor_attribution_is_pinned(name):
    cycles, classes = ANCHOR_ATTRIBUTION[name]
    config = SimConfig.paper(OptimizationConfig.all())
    result = Simulator(config, telemetry=Telemetry()).run(
        workloads.build(name, 0.5), name, "all")
    assert result.cycles == cycles
    assert result.attribution == classes


# -- rendering ----------------------------------------------------------

def test_render_and_diff():
    result = run_with_attribution()
    text = render_attribution(result.attribution, result.cycles)
    for name in CYCLE_CLASSES:
        assert name in text
    diff = diff_attribution("a", result.attribution,
                            "b", result.attribution)
    assert "base" in diff and "total" in diff
