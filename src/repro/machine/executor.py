"""Functional executor.

Runs a :class:`~repro.program.Program` to architectural completion,
producing the committed instruction stream the timing model replays.

A minimal syscall interface is provided for the example programs
(SPIM-style: service number in ``$v0``):

* ``$v0 == 1`` -- append the integer in ``$a0`` to :attr:`Executor.output`.
* ``$v0 == 11`` -- append ``chr($a0)`` to the output.
* ``$v0 == 10`` -- exit (equivalent to ``halt``).

Any other service number is a serializing no-op, which is all the
timing model needs (serializing instructions terminate trace segments).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ExecutionError
from repro.isa.opcodes import Op
from repro.isa.semantics import evaluate, to_s32
from repro.machine.memory import Memory
from repro.machine.state import ArchState
from repro.machine.tracing import CommittedInstr, CommittedTrace
from repro.program.image import Program
from repro.program.loader import load_program

DEFAULT_MAX_INSTRUCTIONS = 5_000_000


class Executor:
    """Architectural interpreter for one program."""

    def __init__(self, program: Program,
                 memory: Optional[Memory] = None,
                 state: Optional[ArchState] = None) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.state = state if state is not None else ArchState()
        self.output: list = []
        self.halted = False
        self.instructions_retired = 0
        load_program(program, self.memory, self.state)

    # ------------------------------------------------------------------

    def step(self) -> CommittedInstr:
        """Execute one instruction and return its committed record.

        Raises:
            ExecutionError: on fetch outside text, bad memory access, or
                stepping a halted machine.
        """
        if self.halted:
            raise ExecutionError("machine is halted")
        state = self.state
        pc = state.pc
        instr = self.program.instr_at(pc)
        effect = evaluate(instr, state.read_reg)

        mem_addr = None
        mem_size = 0
        is_store = False
        value = effect.value
        if effect.mem is not None:
            mem = effect.mem
            mem_addr, mem_size, is_store = mem.addr, mem.size, mem.is_store
            if mem.is_store:
                self.memory.store(mem.addr, mem.store_value, mem.size)
            else:
                value = self.memory.load(mem.addr, mem.size, mem.signed)

        if effect.dest is not None:
            state.write_reg(effect.dest, value)

        if instr.op is Op.SYSCALL:
            self._syscall()
        if effect.halt or self.halted:
            self.halted = True
            next_pc = pc
        elif effect.is_ctrl:
            next_pc = effect.target
        else:
            next_pc = pc + 4
        state.pc = next_pc
        record = CommittedInstr(self.instructions_retired, pc, instr,
                                next_pc, effect.taken and effect.is_ctrl,
                                mem_addr, mem_size, is_store)
        self.instructions_retired += 1
        return record

    def _syscall(self) -> None:
        service = self.state.read_reg(2)          # $v0
        arg = self.state.read_reg(4)              # $a0
        if service == 1:
            self.output.append(to_s32(arg))
        elif service == 11:
            self.output.append(chr(arg & 0xFF))
        elif service == 10:
            self.halted = True

    # ------------------------------------------------------------------

    def run(self,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            collect: bool = True) -> CommittedTrace:
        """Run to halt (or the instruction limit) and return the trace.

        Raises:
            ExecutionError: if the program does not halt within
                *max_instructions* — almost always a workload bug, so it
                is loud rather than silent.
        """
        records: list = []
        append = records.append
        while not self.halted:
            if self.instructions_retired >= max_instructions:
                raise ExecutionError(
                    f"program did not halt within {max_instructions} "
                    f"instructions (pc={self.state.pc:#x})")
            record = self.step()
            if collect:
                append(record)
        return CommittedTrace(records, self.state, self.output)


def run_program(program: Program,
                max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
                ) -> CommittedTrace:
    """Assemble-and-go convenience: execute *program* from a fresh
    machine and return its committed trace."""
    return Executor(program).run(max_instructions)


def execute_sequence(instrs: list, state: ArchState,
                     memory: Memory) -> None:
    """Execute a straight-line instruction sequence in order, mutating
    *state* and *memory*.

    Used by the optimization-equivalence tests: a trace segment replayed
    fully on-path must leave identical architectural state whether or
    not the fill unit transformed it. Control-flow effects update the PC
    but do not redirect (the sequence itself encodes the path).
    """
    for instr in instrs:
        effect = evaluate(instr, state.read_reg)
        value = effect.value
        if effect.mem is not None:
            mem = effect.mem
            if mem.is_store:
                memory.store(mem.addr, mem.store_value, mem.size)
            else:
                value = memory.load(mem.addr, mem.size, mem.signed)
        if effect.dest is not None:
            state.write_reg(effect.dest, value)


__all__ = ["Executor", "run_program", "execute_sequence",
           "DEFAULT_MAX_INSTRUCTIONS"]
