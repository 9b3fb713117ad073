"""Dynamic ineffectuality log: an observer stage for the replay engine.

Records, per committed PC, the three ineffectuality events the static
oracle (:mod:`repro.analysis.static.ineffectuality`) bounds:

* **dead write** — the register result was overwritten (or the run
  ended) before any instruction read it;
* **silent store** — the stored bytes equalled the bytes already in
  memory;
* **predictable value** — the instruction produced the same value as
  its own previous execution.

The committed-instruction records carry no data values (the timing
model never needs them), so the log replays architectural semantics
itself: it owns a private :class:`~repro.machine.state.ArchState` and
:class:`~repro.machine.memory.Memory` image of the program and applies
the pure :func:`~repro.isa.semantics.evaluate` to each committed
record — the *original* instruction, not the trace cache's transformed
copy, so the observation is identical across pipeline configurations.

Pure observer contract: the stage never touches :class:`MachineState`
timing fields, so cycle counts are bit-for-bit identical with the
stage present or absent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.results import SimResult
from repro.core.stages.base import InstrSlot, MachineState, PipelineStage
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.semantics import evaluate
from repro.machine.memory import Memory
from repro.machine.state import ArchState
from repro.machine.tracing import CommittedInstr
from repro.program.image import Program
from repro.program.loader import load_program

NUM_REGS = 32

#: a syscall's out-of-band service/argument reads ($v0, $a0), matching
#: ``repro.analysis.static.dataflow.SYSCALL_USES``.
_SYSCALL_USES = (2, 4)


def _uses(instr: Instruction) -> tuple:
    return (_SYSCALL_USES if instr.op is Op.SYSCALL
            else instr.decoded.sources)


class IneffectualityLog:
    """Replays the architectural stream and logs ineffectual PCs.

    ``sites`` maps each class name to the set of distinct PCs observed
    ineffectual at least once; ``occurrences`` counts every event.
    """

    def __init__(self, program: Program) -> None:
        self.memory = Memory()
        self.state = ArchState()
        load_program(program, self.memory, self.state)
        self.sites: Dict[str, Set[int]] = {
            "dead_write": set(), "silent_store": set(),
            "predictable": set()}
        self.occurrences: Dict[str, int] = {
            "dead_write": 0, "silent_store": 0, "predictable": 0}
        #: register -> PC of the last write not yet read (None if read)
        self._pending: List[Optional[int]] = [None] * NUM_REGS
        #: PC -> value produced by its previous execution
        self._last: Dict[int, int] = {}

    def _log(self, kind: str, pc: int) -> None:
        self.sites[kind].add(pc)
        self.occurrences[kind] += 1

    def observe(self, record: CommittedInstr) -> None:
        """Fold one committed record into the log."""
        instr = record.instr
        pc = instr.pc or 0
        pending = self._pending
        for use in _uses(instr):
            pending[use] = None
        effect = evaluate(instr, self.state.read_reg)
        value = effect.value
        if effect.mem is not None:
            mem = effect.mem
            if mem.is_store:
                old = self.memory.load(mem.addr, mem.size, False)
                if old == mem.store_value & ((1 << (8 * mem.size)) - 1):
                    self._log("silent_store", pc)
                self.memory.store(mem.addr, mem.store_value, mem.size)
            else:
                value = self.memory.load(mem.addr, mem.size, mem.signed)
        dest = effect.dest
        if dest is not None and dest != 0 and value is not None:
            prev = pending[dest]
            if prev is not None:
                self._log("dead_write", prev)
            pending[dest] = pc
            self.state.write_reg(dest, value)
            if self._last.get(pc) == value:
                self._log("predictable", pc)
            self._last[pc] = value

    def finish(self) -> None:
        """End of run: writes never read are dead."""
        for reg in range(1, NUM_REGS):
            prev = self._pending[reg]
            if prev is not None:
                self._log("dead_write", prev)
                self._pending[reg] = None


class IneffectualityLogStage(PipelineStage):
    """Engine observer stage wrapping :class:`IneffectualityLog`.

    Append to ``PipelineModel(...).stages`` after the built-in stages;
    it reads only each slot's committed record and mutates nothing in
    the machine state.
    """

    name = "ineff-log"

    def __init__(self, program: Program) -> None:
        self.log = IneffectualityLog(program)

    def process(self, state: MachineState, slot: InstrSlot) -> None:
        entry = slot.entry
        if entry.phantom or entry.record is None:
            return
        self.log.observe(entry.record)

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        self.log.finish()


__all__ = ["IneffectualityLog", "IneffectualityLogStage"]
