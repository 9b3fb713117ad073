"""Backend component tests: clusters, bypass, RS, rename, retire,
memory scheduler, configuration."""

import dataclasses
import heapq
import random

from hypothesis import given, settings, strategies as st
import pytest

from repro.branch.predictor import MultiBranchPredictor, PredictorConfig
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.core.clusters import CheckpointStore
from repro.core.config import SimConfig
from repro.core.memsched import MemoryScheduler
from repro.core.results import SimResult
from repro.core.stages import (ExecuteStage, FetchEntry, FetchGroup,
                               IssueStage, MachineState, RenameStage,
                               RetireStage)
from repro.errors import ConfigError
from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.machine.tracing import CommittedInstr
from repro.telemetry.events import NULL_EVENT_STREAM
from repro.tracecache.cache import TraceCacheConfig


# --- bypass network (the issue stage's rule) --------------------------------

T0, T1, T2 = 8, 9, 10


def make_issue():
    """The paper machine's issue and execute stages over a fresh
    scoreboard (every register architected, ready at cycle 0)."""
    config = SimConfig.paper()
    state = MachineState(records=[], n=0,
                         result=SimResult("bench", "run", 0, 0),
                         reg_ready=[(0, None)] * 32)
    # ALU ops never reach the memory scheduler
    return IssueStage(config), ExecuteStage(None), state


def dispatch(stages, state, instr, slot, renamed=1):
    """Run one entry through issue and execute; returns the entry."""
    entry = FetchEntry(None, instr, slot)
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
    """The issue path the issue stage's inline claim replaced, kept as
    its oracle: ``admit -> max(renamed + 1, ready, rs_free) -> reserve
    -> occupy`` over per-FU RS heaps and busy-cycle sets."""

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


class Units:
    """The issue stage of a paper machine with *entries* RS entries per
    FU, driven one ``(fu, renamed, ready)`` at a time: an ALU op in
    slot *fu* whose one source register (architected, so no bypass
    penalty) becomes ready at *ready*."""

    def __init__(self, entries):
        config = dataclasses.replace(SimConfig.paper(), rs_per_fu=entries)
        self.stage = IssueStage(config)
        self.state = MachineState(records=[], n=0,
                                  result=SimResult("bench", "run", 0, 0),
                                  reg_ready=[(0, None)] * 32)

    def issue(self, fu, renamed, ready):
        self.state.reg_ready[T0] = (ready, None)
        entry = FetchEntry(None, Instruction(Op.ADD, rd=T2, rs=T0, rt=T0), fu)
        entry.renamed = renamed
        self.stage.process(self.state, entry)
        return entry.exec_start


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
    """Issue *stream* through the issue stage and on the oracle;
    returns the units after asserting every issue cycle agrees."""
    units = Units(entries)
    oracle = OldComposition(num_fus, entries)
    for fu, renamed, ready in stream:
        assert units.issue(fu, renamed, ready) \
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
    (more resident entries than RS entries), trim the claim set and
    cross the oracle's 4096-claim compaction."""
    units = Units(4)
    oracle = OldComposition(1, 4)
    overfilled = trimmed = False
    for fu, renamed, ready in issue_stream(7, 1, 6000, 0.9, 64):
        before = len(units.stage._claims[0])
        assert units.issue(fu, renamed, ready) \
            == oracle.issue(fu, renamed, ready)
        resident = [c for c in units.stage._claims[0] if c > renamed]
        overfilled |= len(resident) > 4
        trimmed |= len(units.stage._claims[0]) <= before
    assert overfilled
    assert trimmed
    assert oracle.floor[0] > 0


def test_fu_accepts_one_per_cycle():
    units = Units(32)
    assert units.issue(0, 9, 10) == 10
    assert units.issue(0, 9, 10) == 11  # same FU, next cycle
    assert units.issue(1, 9, 10) == 10  # other FU free


def test_fu_skips_reserved_cycles():
    units = Units(32)
    units.issue(0, 4, 5)
    units.issue(0, 4, 6)
    assert units.issue(0, 4, 5) == 7


def test_fu_compaction_preserves_recent_state():
    units = Units(10**6)                # capacity out of the way
    oracle = OldComposition(1, 10**6)
    window = units.stage._trim_at
    assert window == SimConfig.paper().window_size
    for i in range(5000):
        assert units.issue(0, i * 2 - 1, i * 2) \
            == oracle.issue(0, i * 2 - 1, i * 2)
        # the window bounds the set, not the RS
        assert len(units.stage._claims[0]) <= window
    assert oracle.floor[0] > 0          # the oracle compacted
    # cycle 9998 is recent: still claimed after the trims
    latest = units.issue(0, 9997, 9998)
    assert latest == 9999
    assert units.issue(0, latest - 1, latest) == latest + 1


def test_far_claim_does_not_raise_later_issues():
    """A claim far ahead of the rest forgets nothing it should not:
    the old composition compacted to 512 cycles before it and then
    issued every later instruction at that floor (99488 here)."""
    units = Units(32)
    for i in range(4096):
        assert units.issue(0, i, i + 1) == i + 1
    assert units.issue(0, 4096, 100000) == 100000
    assert units.issue(0, 4097, 4098) == 4098
    assert len(units.stage._claims[0]) <= 32


# --- reservation stations ----------------------------------------------------

def test_rs_admits_until_full():
    units = Units(2)
    assert units.issue(0, 0, 20) == 20
    assert units.issue(0, 0, 30) == 30
    # full until cycle 20 (taken, so 21): a new entry waits for the
    # release instead of issuing at renamed + 1 = 15
    assert units.issue(0, 14, 0) == 21


def test_rs_frees_after_dispatch():
    units = Units(2)
    assert units.issue(0, 0, 12) == 12
    assert units.issue(0, 0, 14) == 14
    # the entry dispatched at 12 freed up: no RS wait
    assert units.issue(0, 12, 0) == 13
    # everything drained by then
    assert units.issue(0, 19, 0) == 20


# --- rename ------------------------------------------------------------------

ADD = Instruction(Op.ADD, rd=T2, rs=T0, rt=T1)
BEQ = Instruction(Op.BEQ, rs=T0, rt=T1, imm=4)


def make_rename(**overrides):
    """A rename stage on the paper machine with *overrides*, and a
    state whose retirement history is empty."""
    config = dataclasses.replace(SimConfig.paper(), **overrides)
    stage = RenameStage(config, CheckpointStore(config.max_checkpoints),
                        NULL_EVENT_STREAM)
    state = MachineState(records=[], n=0,
                         result=SimResult("bench", "run", 0, 0),
                         reg_ready=[(0, None)] * 32)
    return stage, state


def rename(stage, state, fetch_cycle, instr=ADD):
    """Rename one instruction of a group fetched at *fetch_cycle*."""
    state.group = FetchGroup([], fetch_cycle)
    entry = FetchEntry(None, instr, 0)
    stage.process(state, entry)
    return entry.renamed


def test_rename_width_limit():
    # a two-wide machine: two FUs, two-instruction fetch groups
    stage, state = make_rename(
        issue_width=2, max_blocks_per_cycle=3, window_size=64,
        num_clusters=1, cluster_size=2, ic_fetch_width=2,
        trace_cache=TraceCacheConfig(max_instrs=2))
    cycles = [rename(stage, state, 0) for _ in range(5)]
    assert cycles == [1, 1, 2, 2, 3]


def test_rename_block_limit():
    stage, state = make_rename(issue_width=16, max_blocks_per_cycle=2,
                               window_size=64)
    cycles = [rename(stage, state, 0, BEQ) for _ in range(4)]
    assert cycles == [1, 1, 2, 2]
    assert stage.block_limit_stalls > 0


def test_rename_window_backpressure():
    stage, state = make_rename(
        issue_width=16, max_blocks_per_cycle=3, window_size=8,
        trace_cache=TraceCacheConfig(max_instrs=8))
    # the instruction eight older retires at cycle 50
    state.retire_cycles = [50] + [0] * 7
    assert rename(stage, state, 0) == 51
    assert stage.window_stalls == 1


def test_rename_never_goes_backward():
    stage, state = make_rename(issue_width=16, max_blocks_per_cycle=3,
                               window_size=64)
    first = rename(stage, state, 10)
    second = rename(stage, state, 5)    # earlier fetch, later rename
    assert second >= first


# --- retire ----------------------------------------------------------------

def test_retire_in_order_and_width():
    config = dataclasses.replace(SimConfig.paper(), retire_width=2)
    stage = RetireStage(config, CheckpointStore(config.max_checkpoints),
                        MultiBranchPredictor(config.predictor),
                        NULL_EVENT_STREAM)
    state = MachineState(records=[], n=0,
                         result=SimResult("bench", "run", 0, 0),
                         reg_ready=[(0, None)] * 32)
    state.group = FetchGroup([], 0)
    record = CommittedInstr(0x400000, ADD, 0x400004)

    def retire(complete):
        entry = FetchEntry(record, ADD, 0)
        # rename and issue set these before retire reads them
        entry.seq = len(state.retire_cycles)
        entry.penalized = False
        entry.complete = complete
        stage.process(state, entry)
        return entry.retire_cycle

    assert retire(10) == 11
    assert retire(5) == 11    # in-order: can't retire before prior
    assert retire(5) == 12    # width exhausted at 11
    assert retire(20) == 21
    assert state.retire_cycles == [11, 11, 12, 21]
    # only the retirements that skip cycles are logged for attribution
    assert state.retire_log == [(0, 0, 10, 0, False),
                                (3, 0, 20, 12, False)]


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


#: geometries that used to hang, run silently wrong or fail mid-run
#: with a raw exception; each is a ConfigError at construction now
UNRUNNABLE = {
    "issue_width=0": lambda: SimConfig(issue_width=0),
    "retire_width=0": lambda: SimConfig(retire_width=0),
    "max_blocks_per_cycle=0": lambda: SimConfig(max_blocks_per_cycle=0),
    "ic_fetch_width=0": lambda: SimConfig(ic_fetch_width=0),
    "rs_per_fu=0": lambda: SimConfig(rs_per_fu=0),
    "pht_entries=3": lambda: SimConfig(
        predictor=PredictorConfig(pht_entries=3)),
    "pht_entries=()": lambda: PredictorConfig(pht_entries=()),
    "pht_entries=(3,)": lambda: PredictorConfig(pht_entries=(3,)),
    "max_instrs>num_fus": lambda: SimConfig(
        num_clusters=3, cluster_size=4, issue_width=12),
    "ic_fetch_width>num_fus": lambda: SimConfig(
        num_clusters=2, cluster_size=2, ic_fetch_width=8,
        trace_cache_enabled=False),
    "max_cond_branches=0": lambda: TraceCacheConfig(max_cond_branches=0),
    "max_instrs=0": lambda: TraceCacheConfig(max_instrs=0),
}


@pytest.mark.parametrize("make", list(UNRUNNABLE.values()),
                         ids=list(UNRUNNABLE))
def test_config_rejects_unrunnable_geometry(make):
    with pytest.raises(ConfigError):
        make()


#: timing parameters that used to simulate silently (or, for a cache
#: size, fail only when an Engine is built) when negative
NEGATIVE = {
    "cross_cluster_penalty=-1": lambda: SimConfig(cross_cluster_penalty=-1),
    "mispredict_redirect=-3": lambda: SimConfig(mispredict_redirect=-3),
    "store_forward_window=-1": lambda: SimConfig(store_forward_window=-1),
    "l2_latency=-5": lambda: HierarchyConfig(l2_latency=-5),
    "memory_latency=-50": lambda: HierarchyConfig(memory_latency=-50),
    "l1d_size=-4": lambda: HierarchyConfig(l1d_size=-4),
    "max_scale_shift=-1": lambda: OptimizationConfig(max_scale_shift=-1),
}


@pytest.mark.parametrize("make", list(NEGATIVE.values()), ids=list(NEGATIVE))
def test_config_rejects_negative_timing(make):
    with pytest.raises(ConfigError):
        make()


@pytest.fixture(scope="module")
def compress_trace():
    from repro import workloads
    from repro.machine.executor import Executor
    return Executor(workloads.build("compress", scale=0.05)).run()


#: one field of the paper machine (all four optimizations) mistyped:
#: each used to raise a raw TypeError or AttributeError, at
#: construction or inside the engine, or to simulate silently
MISTYPED = {
    "issue_width='16'": {"issue_width": "16"},
    "window_size=None": {"window_size": None},
    "fill_latency='5'": {"fill_latency": "5"},
    "trace_cache=None": {"trace_cache": None},
    "optimizations=None": {"optimizations": None},
    "issue_width=16.0": {"issue_width": 16.0},
    "retire_width=True": {"retire_width": True},
}


@pytest.mark.parametrize("change", list(MISTYPED.values()),
                         ids=list(MISTYPED))
def test_config_rejects_mistyped_field(change, compress_trace):
    """A mistyped field is a ConfigError when the config is built, so
    no engine is built or run on it."""
    from repro.core.engine import Engine
    with pytest.raises(ConfigError, match=next(iter(change))):
        config = dataclasses.replace(
            SimConfig.paper(OptimizationConfig.all()), **change)
        Engine(config).run(compress_trace, "compress")


MISTYPED_NESTED = {
    "l2_latency='6'": lambda: HierarchyConfig(l2_latency="6"),
    "max_scale_shift='3'": lambda: OptimizationConfig(max_scale_shift="3"),
    "moves='yes'": lambda: OptimizationConfig(moves="yes"),
}


@pytest.mark.parametrize("make", list(MISTYPED_NESTED.values()),
                         ids=list(MISTYPED_NESTED))
def test_nested_config_rejects_mistyped_field(make):
    with pytest.raises(ConfigError):
        make()


def test_zero_timing_parameters_stay_valid():
    SimConfig(cross_cluster_penalty=0, mispredict_redirect=0,
              store_forward_window=0,
              hierarchy=HierarchyConfig(l2_latency=0, memory_latency=0),
              optimizations=OptimizationConfig(max_scale_shift=0))


def test_with_optimizations_copies():
    base = SimConfig.paper()
    opt = dataclasses.replace(base, optimizations=OptimizationConfig.all())
    assert base.optimizations.enabled_names() == []
    assert len(opt.optimizations.enabled_names()) == 4


def test_optimization_config_helpers():
    assert OptimizationConfig.only("moves").enabled_names() == ["moves"]
    assert OptimizationConfig.all().enabled_names() == \
        ["moves", "reassoc", "scaled_adds", "placement"]
    for name in ("bogus", "nonesuch"):
        with pytest.raises(ConfigError, match=f"unknown optimization "
                                              f"'{name}'"):
            OptimizationConfig.only(name)
