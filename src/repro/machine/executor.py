"""Functional executor.

Runs a :class:`~repro.program.Program` to architectural completion,
producing the committed instruction stream the timing model replays.

:meth:`Executor.run` and :meth:`Executor.step` share one loop,
:meth:`Executor._execute`, which sets up the fetch window, the register
file and the memory once per call and then applies each instruction's
:class:`~repro.isa.semantics.Effect`. What an instruction does is
defined once, by :func:`~repro.isa.semantics.evaluate`: the loop calls
an unguarded instruction's handler directly and a guarded one through
``evaluate``.

A minimal syscall interface is provided for the example programs
(SPIM-style: service number in ``$v0``):

* ``$v0 == 1`` -- append the integer in ``$a0`` to :attr:`Executor.output`.
* ``$v0 == 11`` -- append ``chr($a0)`` to the output.
* ``$v0 == 10`` -- exit (equivalent to ``halt``).

Any other service number is a serializing no-op, which is all the
timing model needs (serializing instructions terminate trace segments).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Union, cast

from repro.errors import ExecutionError
from repro.isa.instruction import Instruction
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
        self.output: List[Union[int, str]] = []
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
        records: List[CommittedInstr] = []
        self._execute(self.instructions_retired + 1, records.append)
        return records[0]

    def run(self,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            collect: bool = True) -> CommittedTrace:
        """Run to halt (or the instruction limit) and return the trace.

        Raises:
            ExecutionError: if the program does not halt within
                *max_instructions* — almost always a workload bug, so it
                is loud rather than silent.
        """
        records: List[CommittedInstr] = []
        self._execute(max_instructions, records.append if collect else None)
        if not self.halted:
            raise ExecutionError(
                f"program did not halt within {max_instructions} "
                f"instructions (pc={self.state.pc:#x})")
        return CommittedTrace(records, self.state, self.output)

    def _execute(self, stop: int,
                 append: Optional[Callable[[CommittedInstr], None]]
                 ) -> None:
        """Execute until the machine halts or *stop* instructions have
        retired, passing each committed record to *append* (if given).

        The PC and retired count live in locals and are written back
        when the loop exits, including when an instruction raises (the
        faulting instruction neither retires nor moves the PC).
        """
        state = self.state
        regs = state.regs
        read = regs.__getitem__
        program = self.program
        instructions = program.instructions
        base = program.text_base
        limit = 4 * len(instructions)
        load = self.memory.load
        store = self.memory.store
        syscall = Op.SYSCALL
        pc = state.pc
        retired = self.instructions_retired
        # A dest comes with a value (or a load) and a control transfer
        # with its target, so the loop reads both Optional fields as is.
        value: Any
        target: Any
        mem_addr: Optional[int]
        try:
            while not self.halted and retired < stop:
                offset = pc - base
                if offset & 3 or not 0 <= offset < limit:
                    program.instr_at(pc)        # raises the fetch error
                instr: Instruction = instructions[offset >> 2]
                decoded = instr.decoded
                if decoded.guarded:
                    effect = evaluate(instr, read)
                else:
                    effect = decoded.semantics(instr, decoded, read)
                dest, value, mem, is_ctrl, taken, target, halt, _ = effect
                if mem is None:
                    mem_addr, mem_size, is_store = None, 0, False
                else:
                    is_store, mem_addr, mem_size, signed, stored = mem
                    if is_store:
                        store(mem_addr, stored, mem_size)
                    else:
                        value = load(mem_addr, mem_size, signed)
                if dest:            # register zero ignores writes
                    regs[dest] = to_s32(value)
                if instr.op is syscall:
                    self._syscall()
                if halt or self.halted:
                    self.halted = True
                    next_pc = pc
                elif is_ctrl:
                    next_pc = target
                else:
                    next_pc = pc + 4
                if append is not None:
                    append(CommittedInstr(retired, pc, instr, next_pc,
                                          taken and is_ctrl, mem_addr,
                                          mem_size, is_store))
                retired += 1
                pc = next_pc
        finally:
            state.pc = pc
            self.instructions_retired = retired

    def _syscall(self) -> None:
        service = self.state.read_reg(2)          # $v0
        arg = self.state.read_reg(4)              # $a0
        if service == 1:
            self.output.append(to_s32(arg))
        elif service == 11:
            self.output.append(chr(arg & 0xFF))
        elif service == 10:
            self.halted = True


def run_program(program: Program,
                max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
                ) -> CommittedTrace:
    """Assemble-and-go convenience: execute *program* from a fresh
    machine and return its committed trace."""
    return Executor(program).run(max_instructions)


def execute_sequence(instrs: List[Instruction], state: ArchState,
                     memory: Memory) -> None:
    """Execute a straight-line instruction sequence in order, mutating
    *state*'s registers and *memory*.

    Used by the optimization-equivalence tests: a trace segment replayed
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


__all__ = ["Executor", "run_program", "execute_sequence",
           "DEFAULT_MAX_INSTRUCTIONS"]
