"""Functional executor.

Runs a :class:`~repro.program.Program` to architectural completion,
producing the committed instruction stream the timing model replays.

Each static instruction is compiled once per executor, on its first
visit, into a *step*: a function of no arguments that reads the
register list, writes the destination, appends the instruction's
committed record to the trace and returns the next pc. Steps are built
from the per-opcode value tables of :mod:`repro.isa.semantics`, so
what an instruction computes is written once. A guarded or scaled
instruction, or an opcode without a compiled form (``lui``, the
variable shifts, ``jal``, ``jr``, ``jalr``, ``nop``, ``syscall``,
``halt``), gets a step that calls :func:`~repro.isa.semantics.evaluate`
and applies its :class:`~repro.isa.semantics.Effect`.

Only loads and stores make a fresh :class:`~repro.machine.tracing.
CommittedInstr` each time they execute. Every other record's fields
are fixed by its pc and outcome, so its step builds the record once
and appends the same object again: one per pc, two per conditional
branch (taken and fall-through), one per indirect-jump target. Records
are shared, so nothing downstream may write to one.

A minimal syscall interface is provided for the example programs
(SPIM-style: service number in ``$v0``):

* ``$v0 == 1`` -- append the integer in ``$a0`` to :attr:`Executor.output`.
* ``$v0 == 11`` -- append ``chr($a0)`` to the output.
* ``$v0 == 10`` -- exit (equivalent to ``halt``).

Any other service number is a serializing no-op, which is all the
timing model needs (serializing instructions terminate trace segments).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ExecutionError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.semantics import (
    ALU3,
    ALUI,
    BRANCHES,
    LOADS,
    MASK32,
    SHIFT_IMM,
    STORES,
    evaluate,
    to_s32,
)
from repro.machine.memory import Memory
from repro.machine.state import ArchState
from repro.machine.tracing import CommittedInstr, CommittedTrace
from repro.program.image import Program
from repro.program.loader import load_program

DEFAULT_MAX_INSTRUCTIONS = 5_000_000

#: one compiled instruction: executes it and returns the next pc
Step = Callable[[], int]
Append = Callable[[CommittedInstr], None]
Output = List[Union[int, str]]


class Executor:
    """Architectural interpreter for one program."""

    def __init__(self, program: Program,
                 memory: Optional[Memory] = None,
                 state: Optional[ArchState] = None) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.state = state if state is not None else ArchState()
        self.output: Output = []
        self.halted = False
        self.instructions_retired = 0
        load_program(program, self.memory, self.state)
        self._records: List[CommittedInstr] = []
        self._steps = _Steps(program, self.state.regs, self.memory,
                             self._records.append, self.output)

    def run(self,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
            ) -> CommittedTrace:
        """Run to halt (or the instruction limit) and return the trace.

        The pc and retired count are written back when the loop exits,
        including when an instruction raises: the faulting instruction
        neither retires nor moves the pc.

        Raises:
            ExecutionError: on fetch outside text or a bad memory
                access, or if the program does not halt within
                *max_instructions* — almost always a workload bug, so
                it is loud rather than silent.
        """
        records = self._records
        start = len(records)
        if not self.halted:
            steps = self._steps
            pc = self.state.pc
            try:
                for _ in range(max_instructions
                               - self.instructions_retired):
                    pc = steps[pc]()
            except _Halt:
                self.halted = True
            finally:
                self.state.pc = pc
                self.instructions_retired += len(records) - start
        if not self.halted:
            raise ExecutionError(
                f"program did not halt within {max_instructions} "
                f"instructions (pc={self.state.pc:#x})")
        return CommittedTrace(records[start:] if start else records,
                              self.state, self.output, self.program)


class _Halt(Exception):
    """Raised by a step, after it appended its record, when its
    instruction halts the machine."""


class _Steps(Dict[int, Step]):
    """An executor's compiled steps by pc; a pc met for the first time
    is fetched (which raises the fetch error outside the text) and
    compiled."""

    def __init__(self, program: Program, regs: List[int], memory: Memory,
                 append: Append, output: Output) -> None:
        super().__init__()
        self.program = program
        self.regs = regs
        self.memory = memory
        self.append = append
        self.output = output

    def __missing__(self, pc: int) -> Step:
        instr = self.program.instr_at(pc)
        decoded = instr.decoded
        step = (None if decoded.guarded or decoded.scaled
                else self._compile(instr, pc))
        if step is None:
            step = _evaluated(pc, instr, self.regs, self.memory,
                              self.append, self.output)
        self[pc] = step
        return step

    def _compile(self, instr: Instruction, pc: int) -> Optional[Step]:
        """The compiled step of an unguarded, unscaled instruction, or
        ``None`` if its opcode has no compiled form."""
        regs, append = self.regs, self.append
        op = instr.op
        rd = instr.decoded.dest     # None: none, or register zero
        rs = instr.rs or 0
        rt = instr.rt or 0
        imm = instr.imm or 0
        fall = pc + 4
        if op in ALU3 or op in ALUI or op in SHIFT_IMM:
            record = CommittedInstr(pc, instr, fall)
            if rd is None:
                return _plain(record, append)
            if op in ALU3:
                return _alu3(ALU3[op], rd, rs, rt, regs, record, append)
            if op in ALUI:
                return _alui(ALUI[op], rd, rs, imm, regs, record, append)
            return _alui(SHIFT_IMM[op], rd, rs, imm & 0x1F, regs, record,
                         append)
        if op in LOADS:
            size, signed, indexed = LOADS[op]
            return _load(pc, instr, size, signed, indexed, rd, rs, rt, imm,
                         regs, self.memory.load, append)
        if op in STORES:
            size, indexed = STORES[op]
            value_reg = (instr.rd or 0) if indexed else rt
            return _store(pc, instr, size, indexed, value_reg, rs, rt, imm,
                          regs, self.memory.store, append)
        if op in BRANCHES:
            return _branch(BRANCHES[op], rs, rt, regs,
                           CommittedInstr(pc, instr, (pc + imm) & MASK32,
                                          True),
                           CommittedInstr(pc, instr, fall & MASK32),
                           append)
        if op is Op.J:
            return _plain(CommittedInstr(pc, instr, imm & MASK32, True),
                          append)
        return None


# -- step builders -------------------------------------------------------
#
# Each returns the step of one static instruction; the arguments are
# its decoded operands (register numbers, the immediate) and the
# machine pieces it touches. Register values are signed 32-bit, and
# every value table returns one, so a step writes results as they come.

def _plain(record: CommittedInstr, append: Append) -> Step:
    """No architectural effect: ``j``, or an ALU op whose destination
    is register zero."""
    next_pc = record.next_pc

    def step() -> int:
        append(record)
        return next_pc
    return step


def _alu3(fn: Callable[[int, int], int], rd: int, rs: int, rt: int,
          regs: List[int], record: CommittedInstr, append: Append) -> Step:
    next_pc = record.next_pc

    def step() -> int:
        regs[rd] = fn(regs[rs], regs[rt])
        append(record)
        return next_pc
    return step


def _alui(fn: Callable[[int, int], int], rd: int, rs: int, imm: int,
          regs: List[int], record: CommittedInstr, append: Append) -> Step:
    next_pc = record.next_pc

    def step() -> int:
        regs[rd] = fn(regs[rs], imm)
        append(record)
        return next_pc
    return step


def _load(pc: int, instr: Instruction, size: int, signed: bool,
          indexed: bool, rd: Optional[int], rs: int, rt: int, imm: int,
          regs: List[int], load: Callable[[int, int, bool], int],
          append: Append) -> Step:
    fall = pc + 4

    def step() -> int:
        addr = (regs[rs] + (regs[rt] if indexed else imm)) & MASK32
        value = load(addr, size, signed)
        if rd:
            regs[rd] = value
        append(CommittedInstr(pc, instr, fall, False, addr, size, False))
        return fall
    return step


def _store(pc: int, instr: Instruction, size: int, indexed: bool,
           value_reg: int, rs: int, rt: int, imm: int, regs: List[int],
           store: Callable[[int, int, int], None],
           append: Append) -> Step:
    fall = pc + 4

    def step() -> int:
        addr = (regs[rs] + (regs[rt] if indexed else imm)) & MASK32
        store(addr, regs[value_reg], size)      # store() masks to size
        append(CommittedInstr(pc, instr, fall, False, addr, size, True))
        return fall
    return step


def _branch(taken_if: Callable[[int, int], bool], rs: int, rt: int,
            regs: List[int], taken: CommittedInstr,
            not_taken: CommittedInstr, append: Append) -> Step:
    target, fall = taken.next_pc, not_taken.next_pc

    def step() -> int:
        if taken_if(regs[rs], regs[rt]):
            append(taken)
            return target
        append(not_taken)
        return fall
    return step


def _evaluated(pc: int, instr: Instruction, regs: List[int],
               memory: Memory, append: Append, output: Output) -> Step:
    """Apply :func:`evaluate`'s effect. A record without a memory
    access is shared per ``(next_pc, taken)`` outcome."""
    read = regs.__getitem__
    load, store = memory.load, memory.store
    syscall = instr.op is Op.SYSCALL
    shared: Dict[Tuple[int, bool], CommittedInstr] = {}

    def step() -> int:
        # A dest comes with a value (or a load) and a control transfer
        # with its target, so the step reads both Optional fields as is.
        value: Any
        target: Any
        dest, value, mem, is_ctrl, taken, target, halt, _ = evaluate(
            instr, read)
        if mem is not None:
            is_store, addr, size, signed, stored = mem
            if is_store:
                store(addr, stored, size)
            else:
                value = load(addr, size, signed)
        if dest:            # register zero ignores writes
            regs[dest] = to_s32(value)
        if syscall and _syscall(regs, output):
            halt = True
        next_pc = pc if halt else target if is_ctrl else pc + 4
        taken = taken and is_ctrl
        if mem is not None:
            append(CommittedInstr(pc, instr, next_pc, taken, addr, size,
                                  is_store))
        else:
            record = shared.get((next_pc, taken))
            if record is None:
                record = shared[next_pc, taken] = CommittedInstr(
                    pc, instr, next_pc, taken)
            append(record)
        if halt:
            raise _Halt
        return next_pc
    return step


def _syscall(regs: List[int], output: Output) -> bool:
    """Serve the syscall whose service number is in ``$v0``; True if it
    exits."""
    service, arg = regs[2], regs[4]             # $v0, $a0
    if service == 1:
        output.append(to_s32(arg))
    elif service == 11:
        output.append(chr(arg & 0xFF))
    return service == 10


__all__ = ["Executor", "DEFAULT_MAX_INSTRUCTIONS"]
