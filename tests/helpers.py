"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
import subprocess
import sys
from typing import List, Optional, Tuple, Union, cast

from repro.asm import assemble
from repro.branch.bias import BiasTable
from repro.core.config import SimConfig
from repro.core.stages.base import PipelineStage
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig
from repro.errors import ExecutionError
from repro.fillunit.unit import FillUnit
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.semantics import evaluate, to_s32
from repro.machine.executor import Executor
from repro.machine.memory import Memory
from repro.machine.state import ArchState
from repro.machine.tracing import CommittedInstr
from repro.program.image import Program
from repro.program.loader import load_program
from repro.telemetry.attribution import CYCLE_CLASSES
from repro.tracecache.cache import TraceCacheConfig
from repro.tracecache.segment import TraceSegment


def evicting_config(opts: OptimizationConfig, policy: str) -> SimConfig:
    """The paper machine on the evicting ``tiny-evict`` geometry under
    *policy*: a 16-set trace cache and 1 KiB L1I/L1D, so lines are
    evicted and rebuilt and the replacement policies differ."""
    base = SimConfig.paper(opts)
    return dataclasses.replace(
        base,
        trace_cache=dataclasses.replace(base.trace_cache, num_sets=16,
                                        policy=policy),
        hierarchy=dataclasses.replace(base.hierarchy, l1i_size=1024,
                                      l1d_size=1024, policy=policy))


def region_ids(candidate) -> Tuple[List[int], List[int]]:
    """The block and flow ids of a line holding *candidate*'s
    instructions, as the line counts them."""
    segment = TraceSegment(start_pc=candidate.start_pc,
                           instrs=[r.instr for r in candidate.records])
    return segment.block_ids, segment.flow_ids


def record_policy_hooks(monkeypatch, name: str) -> None:
    """Register, for the caches built from now on, a subclass of the
    *name* replacement policy whose instances log the key of every
    ``on_hit`` (``hits``) and ``on_insert`` (``inserts``) they get.

    The subclass overrides both hooks, so a cache calls them even for
    a policy (LRU) whose own hooks are the base class's no-ops."""
    from repro.cache import policy as policies

    base = policies._POLICIES[name]

    class Recording(base):
        def __init__(self, num_sets):
            super().__init__(num_sets)
            self.hits = []
            self.inserts = []

        def on_hit(self, index, key):
            self.hits.append(key)
            super().on_hit(index, key)

        def on_insert(self, index, key):
            self.inserts.append(key)
            super().on_insert(index, key)

    monkeypatch.setitem(policies._POLICIES, name, Recording)


def run_fresh(script: str) -> dict:
    """Run *script* in a fresh interpreter that imports this checkout's
    ``repro``, and return the JSON it prints. For checks on
    ``sys.modules``, which the pytest process has filled already."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def run_asm(source: str, max_instructions: int = 200_000):
    """Assemble and functionally execute a program; returns
    (program, trace)."""
    program = assemble(source)
    trace = Executor(program).run(max_instructions)
    return program, trace


def make_fill_unit(bias: BiasTable, opts: Optional[OptimizationConfig],
                   trace_cache: TraceCacheConfig, latency: int = 1,
                   **fields: object) -> FillUnit:
    """A hand-built fill unit of a machine :class:`SimConfig` accepts:
    the paper machine under *opts* (None: no optimizations), with fill
    latency *latency*, the *trace_cache* geometry and any other
    SimConfig *fields* (``verify_fill``, ...)."""
    config = dataclasses.replace(SimConfig.paper(opts),
                                 fill_latency=latency,
                                 trace_cache=trace_cache, **fields)
    return FillUnit(config, bias)


def build_segments(source: str, optimizations=None,
                   promote_all: bool = False):
    """Assemble *source*, run it, and build optimized trace segments
    from the full retire stream.

    Returns (program, trace, [TraceSegment]). With ``promote_all``,
    every conditional branch is treated as promoted (bias threshold 1
    after pre-warming), useful to pack long segments deterministically.
    """
    program = assemble(source)
    trace = Executor(program).run()
    bias = BiasTable(64, threshold=1 if promote_all else 64)
    if promote_all:
        for record in trace:
            if record.instr.is_cond_branch():
                bias.record(record.pc, record.taken)
                bias.record(record.pc, record.taken)
    unit = make_fill_unit(bias, optimizations,
                          TraceCacheConfig(num_sets=64, assoc=4))
    segments = []
    collector = FillCollector(bias)
    for record in trace:
        for candidate in collector.add(record):
            segments.append(unit.build_segment(candidate))
    return program, trace, segments


class ReferenceMachine:
    """A reference interpreter for the functional executor: one
    :func:`~repro.isa.semantics.evaluate` call per instruction and a
    fresh record per retired instruction, with no compiled steps and no
    shared records. ``tests/test_prop_executor.py`` fuzzes
    :meth:`Executor.run` against it.

    It keeps the executor's public state (``state``, ``memory``,
    ``output``, ``halted``, ``instructions_retired``) under the same
    names, so a test reads both machines alike.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.memory = Memory()
        self.state = ArchState()
        self.output: List[Union[int, str]] = []
        self.halted = False
        self.instructions_retired = 0
        load_program(program, self.memory, self.state)

    def run(self, max_instructions: int) -> List[CommittedInstr]:
        """Execute until halt, returning the committed records; raise
        :class:`ExecutionError` as :meth:`Executor.run` does. A faulting
        instruction neither retires nor moves the pc."""
        state, records = self.state, []
        while not self.halted:
            if self.instructions_retired >= max_instructions:
                raise ExecutionError(
                    f"program did not halt within {max_instructions} "
                    f"instructions (pc={state.pc:#x})")
            pc = state.pc
            instr = self.program.instr_at(pc)
            effect = evaluate(instr, state.read_reg)
            value, mem = effect.value, effect.mem
            mem_addr, mem_size, is_store = None, 0, False
            if mem is not None:
                mem_addr, mem_size, is_store = mem.addr, mem.size, \
                    mem.is_store
                if is_store:
                    self.memory.store(mem.addr, mem.store_value, mem.size)
                else:
                    value = self.memory.load(mem.addr, mem.size,
                                             mem.signed)
            if effect.dest is not None:
                state.write_reg(effect.dest, cast(int, value))
            if instr.op is Op.SYSCALL:
                self._syscall()
            if effect.halt or self.halted:
                self.halted = True
                next_pc = pc
            elif effect.is_ctrl:
                next_pc = cast(int, effect.target)
            else:
                next_pc = pc + 4
            records.append(CommittedInstr(
                pc, instr, next_pc, effect.taken and effect.is_ctrl,
                mem_addr, mem_size, is_store))
            self.instructions_retired += 1
            state.pc = next_pc
        return records

    def _syscall(self) -> None:
        service, arg = self.state.read_reg(2), self.state.read_reg(4)
        if service == 1:
            self.output.append(to_s32(arg))
        elif service == 11:
            self.output.append(chr(arg & 0xFF))
        elif service == 10:
            self.halted = True


def execute_sequence(instrs: List[Instruction], state: ArchState,
                     memory: Memory) -> None:
    """Execute a straight-line instruction sequence in order, mutating
    *state*'s registers and *memory*.

    The optimization-equivalence tests use it: a trace segment replayed
    fully on-path must leave identical architectural state whether or
    not the fill unit transformed it. Control-flow effects are ignored:
    they neither redirect nor touch ``state.pc`` (the sequence itself
    encodes the path). A link register write (``jal``/``jalr``) still
    lands.
    """
    for instr in instrs:
        effect = evaluate(instr, state.read_reg)
        value = cast(int, effect.value)   # a load's is read below
        if effect.mem is not None:
            mem = effect.mem
            if mem.is_store:
                memory.store(mem.addr, mem.store_value, mem.size)
            else:
                value = memory.load(mem.addr, mem.size, mem.signed)
        if effect.dest is not None:
            state.write_reg(effect.dest, value)


class GroupTimes(PipelineStage):
    """Observer stage: every committed instruction's
    ``(seq, fetch, rename, complete, retire, move)`` row, read off each
    finished fetch group (``move``: rename eliminates it)."""

    name = "group_times"

    def __init__(self):
        self.rows = []

    def end_group(self, state):
        group = state.group
        for entry in group.entries:
            if not entry.phantom:
                self.rows.append((entry.seq, group.fetch_cycle,
                                  entry.renamed, entry.complete,
                                  entry.retire_cycle,
                                  bool(entry.decoded.move)))


class FetchSource(PipelineStage):
    """Observer stage: committed instructions by where fetch found
    them, the trace cache (``tc``) or the I-cache (``ic``), and the
    marked moves among them (``moves``, which rename eliminates)."""

    name = "fetch_source"

    def __init__(self):
        self.tc = self.ic = self.moves = 0

    def end_group(self, state):
        group = state.group
        committed = [entry for entry in group.entries if not entry.phantom]
        if group.segment is not None:
            self.tc += len(committed)
        else:
            self.ic += len(committed)
        self.moves += sum(1 for entry in committed if entry.decoded.move)


class ReferenceAccountant(PipelineStage):
    """The reference cycle attribution: an observer stage that
    classifies every retirement as it reads each finished fetch group,
    independent of the retire and fetch logs the engine's own
    attribution is built from. Append it to ``engine.stages`` before
    ``run()``; :attr:`attribution` holds its classes afterwards.

    Between two consecutive retirement cycles every skipped cycle is
    attributed by walking the *next* retiring instruction's own
    timeline (fetch / complete / retire cycles plus the front-end
    delay decomposition of its fetch group), newest cause first.
    Front-end delays that overlap retirement of earlier instructions
    are carried as debts and charged when the pipeline later stalls.
    """

    name = "reference_attribution"

    def __init__(self, bypass_penalty=1, extra_is_tc_miss=True):
        self.bypass_penalty = bypass_penalty
        self._extra_class = ("tc_miss" if extra_is_tc_miss
                             else "fetch_starved")
        self.classes = dict.fromkeys(CYCLE_CLASSES, 0)
        self.attribution = {}
        self._last_retire = 0
        self._recovery_debt = 0
        self._extra_debt = 0
        self._serialize_debt = 0

    @classmethod
    def attach(cls, engine):
        """Append a reference for *engine*'s machine; return it."""
        config = engine.config
        reference = cls(config.cross_cluster_penalty,
                        extra_is_tc_miss=engine.trace_cache is not None)
        engine.stages.append(reference)
        return reference

    def end_group(self, state):
        """The group's retirements, one by one. Group-level delays are
        debited once, on the group's first committed instruction."""
        group = state.group
        debited = False
        for entry in group.entries:
            if entry.phantom:
                continue
            self.on_retire(group.fetch_cycle, entry.complete,
                           entry.retire_cycle,
                           *((0, 0, 0) if debited else
                             (group.recovery, group.fetch_extra,
                              group.serialize)),
                           bypass_penalized=entry.penalized)
            debited = True

    def finish_run(self, state, result):
        if state is not None:   # an empty trace has no attribution
            total = sum(self.classes.values())
            assert total == result.cycles, (total, result.cycles)
            self.attribution = dict(self.classes)

    def on_retire(self, fetch, complete, retire, recovery=0,
                  fetch_extra=0, serialize=0, bypass_penalized=False):
        """Account the cycles up to and including *retire*."""
        self._recovery_debt += recovery
        self._extra_debt += fetch_extra
        self._serialize_debt += serialize
        classes = self.classes
        last = self._last_retire
        if retire <= last:      # shares an already-counted retire cycle
            return
        classes["base"] += 1    # the retire cycle itself is productive
        stalls_end = retire - 1
        extra_class = self._extra_class
        # (last, min(fetch, stalls_end)]: front-end bound
        frontend = min(fetch, stalls_end) - last
        if frontend > 0:
            take = min(frontend, self._extra_debt)
            classes[extra_class] += take
            self._extra_debt -= take
            frontend -= take
            take = min(frontend, self._recovery_debt)
            classes["mispredict_recovery"] += take
            self._recovery_debt -= take
            frontend -= take
            take = min(frontend, self._serialize_debt)
            classes["drain"] += take
            self._serialize_debt -= take
            frontend -= take
            classes["fetch_starved"] += frontend
        # (max(last, fetch), min(complete, stalls_end)]: back-end bound;
        # settle the front-end debts the refill stall is paying for
        backend = min(complete, stalls_end) - max(last, fetch)
        if backend > 0:
            if bypass_penalized:
                take = min(backend, self.bypass_penalty)
                classes["bypass_delay"] += take
                backend -= take
            take = min(backend, self._recovery_debt)
            classes["mispredict_recovery"] += take
            self._recovery_debt -= take
            backend -= take
            take = min(backend, self._extra_debt)
            classes[extra_class] += take
            self._extra_debt -= take
            backend -= take
            take = min(backend, self._serialize_debt)
            classes["drain"] += take
            self._serialize_debt -= take
            backend -= take
            classes["issue_bound"] += backend
        # (max(last, complete), stalls_end]: complete but not retired
        drain = stalls_end - max(last, complete)
        if drain > 0:
            classes["drain"] += drain
        self._last_retire = retire
