"""Backend component tests: clusters, bypass, RS, rename, retire,
memory scheduler, configuration."""

import heapq
import random

from hypothesis import given, settings, strategies as st
import pytest

from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.core.clusters import FunctionalUnit
from repro.core.config import SimConfig
from repro.core.memsched import MemoryScheduler
from repro.core.rename import RenameUnit, RetireUnit
from repro.core.results import SimResult
from repro.core.stages import (ExecuteStage, FetchEntry, IssueStage,
                               MachineState)
from repro.errors import ConfigError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.telemetry.registry import TelemetryRegistry


# --- bypass network (the issue stage's rule) --------------------------------

T0, T1, T2 = 8, 9, 10


def make_issue():
    """The paper machine's issue and execute stages over a fresh
    scoreboard (every register architected, ready at cycle 0)."""
    config = SimConfig.paper()
    registry = TelemetryRegistry()
    fus = [FunctionalUnit(config.rs_per_fu) for _ in range(config.num_fus)]
    state = MachineState(records=[], n=0,
                         result=SimResult("bench", "run", 0, 0),
                         reg_ready=[(0, None)] * 32)
    # ALU ops never reach the memory scheduler
    return IssueStage(config, fus, registry), \
        ExecuteStage(None, registry), state


def dispatch(stages, state, instr, slot, renamed=1):
    """Run one entry through issue and execute; returns the entry."""
    entry = FetchEntry(None, instr, slot, True)
    entry.renamed = renamed
    for stage in stages:
        stage.process(state, entry)
    return entry


def issue_pair(producer_slot, consumer_slot):
    """A producer of $t1 in *producer_slot*, then a consumer of $t1 and
    the architected $t0 in *consumer_slot*, both renamed at cycle 1."""
    issue, execute, state = make_issue()
    producer = dispatch((issue, execute), state,
                        Instruction(Op.ADD, rd=T1, rs=T0, rt=T0),
                        producer_slot)
    consumer = dispatch((issue, execute), state,
                        Instruction(Op.ADD, rd=T2, rs=T1, rt=T0),
                        consumer_slot)
    return producer, consumer, issue


def test_same_cluster_forward_free():
    producer, consumer, issue = issue_pair(0, 3)
    assert producer.complete == 3          # issue 2, one-cycle ALU
    assert consumer.exec_start == producer.complete
    assert not consumer.penalized
    assert issue.crossings == 0


def test_cross_cluster_forward_penalized():
    producer, consumer, issue = issue_pair(3, 4)
    assert consumer.exec_start == producer.complete + issue.penalty
    assert consumer.penalized
    assert issue.crossings == 1


def test_architected_values_free_everywhere():
    issue, execute, state = make_issue()
    consumer = dispatch((issue, execute), state,
                        Instruction(Op.ADD, rd=T2, rs=T0, rt=T1), 15)
    assert consumer.exec_start == consumer.renamed + 1
    assert not consumer.penalized
    assert issue.crossings == 0


def test_cluster_of_slot():
    issue, execute, state = make_issue()
    clusters = [dispatch((issue,), state,
                         Instruction(Op.ADD, rd=T2, rs=T0, rt=T0),
                         slot).cluster
                for slot in (0, 3, 4, 15)]
    assert clusters == [0, 0, 1, 3]


# --- functional units behind their reservation stations ---------------------

class OldComposition:
    """The issue path the merged :class:`FunctionalUnit` replaced, kept
    as its oracle: ``admit -> max(renamed + 1, ready, rs_free) ->
    reserve -> occupy`` over per-FU RS heaps and busy-cycle sets."""

    def __init__(self, num_fus, entries_per_fu):
        self.entries_per_fu = entries_per_fu
        self.release = [[] for _ in range(num_fus)]
        self.busy = [set() for _ in range(num_fus)]
        self.floor = [0] * num_fus

    def admit(self, fu, enter):
        heap = self.release[fu]
        while heap and heap[0] <= enter:
            heapq.heappop(heap)
        if len(heap) >= self.entries_per_fu:
            return heap[0]
        return enter

    def reserve(self, fu, earliest):
        busy = self.busy[fu]
        cycle = max(earliest, self.floor[fu])
        while cycle in busy:
            cycle += 1
        busy.add(cycle)
        if len(busy) > 4096:
            floor = cycle - 512
            self.busy[fu] = {c for c in busy if c >= floor}
            self.floor[fu] = max(self.floor[fu], floor)
        return cycle

    def occupy(self, fu, until):
        heapq.heappush(self.release[fu], until)

    def issue(self, fu, renamed, ready):
        rs_free = self.admit(fu, renamed)
        cycle = self.reserve(fu, max(renamed + 1, ready, rs_free))
        self.occupy(fu, cycle)
        return cycle


def issue_stream(seed, num_fus, length, stall, spread):
    """A random ``(fu, renamed, ready)`` stream: rename advances a cycle
    with probability ``1 - stall`` and operands arrive up to *spread*
    cycles later, so a high stall and a wide spread keep the RS full."""
    rng = random.Random(seed)
    renamed = 0
    for _ in range(length):
        if rng.random() >= stall:
            renamed += 1
        yield (rng.randrange(num_fus), renamed,
               renamed + rng.randrange(spread + 1))


def replay_both(stream, num_fus, entries):
    """Issue *stream* on the merged units and on the oracle; returns
    the units after asserting every issue cycle agrees."""
    units = [FunctionalUnit(entries) for _ in range(num_fus)]
    oracle = OldComposition(num_fus, entries)
    for fu, renamed, ready in stream:
        assert units[fu].issue(renamed, ready) \
            == oracle.issue(fu, renamed, ready)
    return units


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_fus=st.integers(1, 3),
       entries=st.integers(1, 8), length=st.integers(1, 6000),
       stall=st.floats(0.0, 0.95), spread=st.integers(0, 64))
def test_functional_unit_matches_old_composition(seed, num_fus, entries,
                                                 length, stall, spread):
    replay_both(issue_stream(seed, num_fus, length, stall, spread),
                num_fus, entries)


def test_issue_streams_reach_overfill_and_compaction():
    """The stream shapes the property draws from do over-fill the RS
    (more release cycles outstanding than entries) and cross the
    4096-cycle compaction."""
    units = [FunctionalUnit(4)]
    oracle = OldComposition(1, 4)
    overfilled = False
    for fu, renamed, ready in issue_stream(7, 1, 6000, 0.9, 64):
        assert units[0].issue(renamed, ready) \
            == oracle.issue(fu, renamed, ready)
        overfilled |= len(units[0]._release) > 4
    assert overfilled
    assert units[0]._floor > 0


def test_fu_accepts_one_per_cycle():
    fus = [FunctionalUnit(32) for _ in range(2)]
    assert fus[0].issue(9, 10) == 10
    assert fus[0].issue(9, 10) == 11    # same FU, next cycle
    assert fus[1].issue(9, 10) == 10    # other FU free


def test_fu_skips_reserved_cycles():
    fu = FunctionalUnit(32)
    fu.issue(4, 5)
    fu.issue(4, 6)
    assert fu.issue(4, 5) == 7


def test_fu_compaction_preserves_recent_state():
    fu = FunctionalUnit(10**6)          # capacity out of the way
    oracle = OldComposition(1, 10**6)
    for i in range(5000):
        assert fu.issue(i * 2 - 1, i * 2) == oracle.issue(0, i * 2 - 1,
                                                          i * 2)
    assert fu._floor > 0                # compaction ran
    # cycle 9998 is recent: still reserved after compaction
    latest = fu.issue(9997, 9998)
    assert latest == 9999
    assert fu.issue(latest - 1, latest) == latest + 1


# --- reservation stations ----------------------------------------------------

def test_rs_admits_until_full():
    fu = FunctionalUnit(2)
    assert fu.issue(0, 20) == 20
    assert fu.issue(0, 30) == 30
    # full until cycle 20 (taken, so 21): a new entry waits for the
    # release instead of issuing at renamed + 1 = 15
    assert fu.issue(14, 0) == 21


def test_rs_frees_after_dispatch():
    fu = FunctionalUnit(2)
    assert fu.issue(0, 12) == 12
    assert fu.issue(0, 14) == 14
    # the entry dispatched at 12 freed up: no RS wait
    assert fu.issue(12, 0) == 13
    # everything drained by then
    assert fu.issue(19, 0) == 20


# --- rename ------------------------------------------------------------------

def test_rename_width_limit():
    rename = RenameUnit(issue_width=2, max_blocks_per_cycle=3,
                        window_size=64)
    cycles = [rename.rename(0, False, 0) for _ in range(5)]
    assert cycles == [1, 1, 2, 2, 3]


def test_rename_block_limit():
    rename = RenameUnit(issue_width=16, max_blocks_per_cycle=2,
                        window_size=64)
    cycles = [rename.rename(0, True, 0) for _ in range(4)]
    assert cycles == [1, 1, 2, 2]
    assert rename.block_limit_stalls > 0


def test_rename_window_backpressure():
    rename = RenameUnit(issue_width=16, max_blocks_per_cycle=3,
                        window_size=8)
    assert rename.rename(0, False, window_release=50) == 51
    assert rename.window_stalls == 1


def test_rename_never_goes_backward():
    rename = RenameUnit(16, 3, 64)
    first = rename.rename(10, False, 0)
    second = rename.rename(5, False, 0)   # earlier fetch, later rename
    assert second >= first


# --- retire --------------------------------------------------------------------

def test_retire_in_order_and_width():
    retire = RetireUnit(retire_width=2)
    assert retire.retire(10) == 11
    assert retire.retire(5) == 11    # in-order: can't retire before prior
    assert retire.retire(5) == 12    # width exhausted at 11
    assert retire.retire(20) == 21


# --- memory scheduler -------------------------------------------------------

def make_sched():
    return MemoryScheduler(MemoryHierarchy(HierarchyConfig(
        l1i_size=1024, l1d_size=1024, l2_size=8192)), forward_window=64)


def test_load_blocked_by_unknown_store_address():
    sched = make_sched()
    sched.store_timing(0x100, agen_done=50, data_ready=50)
    # A load whose AGEN completes earlier must wait for the store AGEN.
    ready = sched.load_timing(0x200, agen_done=10)
    assert ready >= 51
    assert sched.blocked_loads == 1


def test_store_to_load_forwarding():
    sched = make_sched()
    done = sched.store_timing(0x100, agen_done=10, data_ready=30)
    assert done == 30
    ready = sched.load_timing(0x100, agen_done=32)
    assert ready == max(33, 30)
    assert sched.forwarded_loads == 1


def test_forwarding_window_expires():
    sched = make_sched()
    sched.store_timing(0x100, agen_done=10, data_ready=10)
    sched.load_timing(0x100, agen_done=500)   # far beyond the window
    assert sched.forwarded_loads == 0


def test_cold_load_pays_memory_latency():
    sched = make_sched()
    ready = sched.load_timing(0x4000, agen_done=10)
    assert ready == 10 + 1 + 56


# --- configuration -----------------------------------------------------------

def test_paper_config_defaults():
    config = SimConfig.paper()
    assert config.issue_width == 16
    assert config.trace_cache.max_instrs == 16
    assert config.num_fus == 16
    assert config.num_clusters == 4
    assert config.trace_cache.num_lines == 2048
    assert config.fill_latency == 5
    assert config.optimizations.enabled_names() == []


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(num_clusters=8, cluster_size=4, issue_width=16)
    with pytest.raises(ConfigError):
        SimConfig(window_size=4)
    with pytest.raises(ConfigError):
        SimConfig(fill_latency=0)


def test_with_optimizations_copies():
    from repro.fillunit.opts.base import OptimizationConfig
    base = SimConfig.paper()
    opt = base.with_optimizations(OptimizationConfig.all())
    assert base.optimizations.enabled_names() == []
    assert len(opt.optimizations.enabled_names()) == 4


def test_with_fill_latency():
    assert SimConfig.paper().with_fill_latency(10).fill_latency == 10


def test_optimization_config_helpers():
    from repro.fillunit.opts.base import OptimizationConfig
    assert OptimizationConfig.only("moves").enabled_names() == ["moves"]
    assert OptimizationConfig.all().enabled_names() == \
        ["moves", "reassoc", "scaled_adds", "placement"]
    with pytest.raises(ValueError):
        OptimizationConfig.only("bogus")
