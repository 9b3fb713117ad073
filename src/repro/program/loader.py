"""Loading a :class:`Program` into machine memory."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.program.image import Program

if TYPE_CHECKING:
    from repro.machine.memory import Memory
    from repro.machine.state import ArchState


#: Default stack top; the loader initializes ``$sp`` here.
STACK_TOP = 0x7FFFF0
#: Default global-pointer base, pointing at the data segment.


def load_program(program: Program, memory: Memory,
                 state: Optional[ArchState] = None) -> None:
    """Copy *program*'s data segment into *memory* and, when *state* is
    given, initialize PC, ``$sp`` and ``$gp`` following the MIPS ABI
    conventions used by the workload generators."""
    if program.data:
        memory.write_bytes(program.data_base, bytes(program.data))
    if state is not None:
        assert program.entry is not None    # set by Program.__post_init__
        state.pc = program.entry
        state.write_reg(29, STACK_TOP)          # $sp
        state.write_reg(28, program.data_base)  # $gp


__all__ = ["load_program", "STACK_TOP"]
