"""Cycle-accounting tests: the partition must be exact — classes sum
to the run's total cycles, always."""

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.errors import ReproError
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.machine.tracing import CommittedTrace
from repro.telemetry import Telemetry
from repro.telemetry.attribution import (
    CYCLE_CLASSES,
    attribute_cycles,
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
    model = Engine(config or SimConfig.tiny(), telemetry=telemetry)
    return model.run(trace, "t", "r")


# -- synthetic logs -----------------------------------------------------
#
# A retire-log entry is ``(seq, fetch, complete, previous retire,
# penalized)`` for a retirement that skips cycles (it retires at
# ``complete + 1``); a fetch-log entry is ``(first seq, recovery,
# fetch_extra, serialize)`` for a group with a front-end delay.


def classify(retires, fetches, cycles, bypass_penalty=1,
             extra_is_tc_miss=True):
    return attribute_cycles(retires, fetches, cycles, bypass_penalty,
                            extra_is_tc_miss)


def test_back_to_back_retires_are_all_base():
    # ten retirements, each one cycle after the last: no gap is logged
    attribution = classify([], [], 10)
    assert attribution["base"] == 10
    assert sum(attribution.values()) == 10


def test_same_cycle_retires_counted_once():
    # four retirements in cycle 1 open no gap either
    assert classify([], [], 1) == dict.fromkeys(CYCLE_CLASSES, 0) | {
        "base": 1}


def test_frontend_gap_split_newest_first():
    # retire at 1, then the next instr fetched at 10: a gap of 9
    # frontend cycles; 3 were an icache round trip (tc miss), 2
    # redirect, rest starvation.
    attribution = classify([(1, 10, 10, 1, False)], [(1, 2, 3, 0)], 11)
    assert attribution["tc_miss"] == 3
    assert attribution["mispredict_recovery"] == 2
    assert attribution["fetch_starved"] == 4
    assert attribution["base"] == 2
    assert sum(attribution.values()) == 11


def test_extra_without_trace_cache_is_fetch_starved():
    attribution = classify([(1, 5, 5, 1, False)], [(1, 0, 4, 0)], 6,
                           extra_is_tc_miss=False)
    assert attribution["tc_miss"] == 0
    assert attribution["fetch_starved"] == 4


def test_backend_gap_with_bypass_carve():
    # fetched immediately, executed for 5 cycles, last operand paid the
    # cross-cluster penalty.
    attribution = classify([(1, 1, 6, 1, True)], [], 7, bypass_penalty=1)
    assert attribution["bypass_delay"] == 1
    assert attribution["issue_bound"] == 4
    assert sum(attribution.values()) == 7


def test_recovery_debt_settles_in_backend_gap():
    # The redirect delay hid behind retirement (fetch <= last retire);
    # the refill stall must still be charged to the mispredict.
    attribution = classify([(0, 0, 4, 0, False),       # 4 issue_bound
                            (1, 5, 10, 5, False)], [(1, 3, 0, 0)], 11)
    assert attribution["mispredict_recovery"] == 3
    assert attribution["issue_bound"] == 4 + 2
    assert sum(attribution.values()) == 11


def test_group_delay_falls_due_at_its_first_record():
    # the group that starts at seq 5 was redirected; a gap at seq 2
    # comes before it and is all issue-bound
    attribution = classify([(2, 0, 4, 0, False)], [(5, 3, 0, 0)], 5)
    assert attribution["mispredict_recovery"] == 0
    assert attribution["issue_bound"] == 4


def test_drain_class():
    # a gap retires the cycle after it completes, so drain comes from
    # a serialization drain that delayed the next group's fetch:
    # retired at 1, next fetch pushed from 2 to 5 by the drain.
    attribution = classify([(1, 5, 5, 1, False)], [(1, 0, 0, 3)], 6)
    assert attribution["drain"] == 3
    assert attribution["fetch_starved"] == 1


def test_finish_raises_on_lost_cycles():
    # a 5-cycle gap cannot fit in a 3-cycle run
    with pytest.raises(ReproError, match="lost cycles"):
        classify([(0, 0, 5, 0, False)], [], 3)


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


def test_attribution_without_session():
    """Every run carries its attribution, observed or not."""
    _, trace = run_asm(LOOP)
    result = Engine(SimConfig.tiny()).run(trace, "t", "r")
    assert result.attribution == run_with_attribution().attribution
    assert sum(result.attribution.values()) == result.cycles


def test_telemetry_session_does_not_change_timing():
    """The bit-for-bit requirement: observing a run must not alter it."""
    _, trace = run_asm(LOOP)
    plain = Engine(SimConfig.tiny()).run(trace, "t", "r")
    observed = run_with_attribution()
    assert plain.cycles == observed.cycles
    assert plain.ipc == observed.ipc
    assert plain.mispredicts == observed.mispredicts


def test_empty_trace_has_no_attribution():
    trace = CommittedTrace([], None, [])
    for telemetry in (None, Telemetry()):
        result = Engine(SimConfig.tiny(), telemetry=telemetry).run(
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
    result = Engine(config).run(
        Executor(workloads.build(name, 0.5)).run(), name, "all")
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
