"""The :class:`Program` image produced by the assembler.

The simulator is Harvard-style at the modelling level: instruction
*objects* are fetched from the program image by PC (instruction-cache
behaviour is modelled by address), while data lives in the byte-level
:class:`repro.machine.memory.Memory`. Instructions are never encoded
to binary words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ExecutionError
from repro.isa.instruction import Instruction


@dataclass
class Program:
    """An assembled, loadable program."""

    instructions: list
    text_base: int = 0x1000
    data: bytearray = field(default_factory=bytearray)
    data_base: int = 0x100000
    symbols: dict = field(default_factory=dict)
    entry: Optional[int] = None
    name: str = "a.out"

    def __post_init__(self) -> None:
        for idx, instr in enumerate(self.instructions):
            instr.pc = self.text_base + 4 * idx
        if self.entry is None:
            self.entry = self.symbols.get("main", self.text_base)

    @property
    def text_end(self) -> int:
        """One past the last instruction byte."""
        return self.text_base + 4 * len(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def instr_at(self, pc: int) -> Instruction:
        """Fetch the instruction at byte address *pc*.

        Raises:
            ExecutionError: if *pc* is outside the text segment or
                misaligned.
        """
        offset = pc - self.text_base
        if offset % 4 or not 0 <= offset < 4 * len(self.instructions):
            raise ExecutionError(f"instruction fetch outside text: {pc:#x}")
        return self.instructions[offset // 4]

    def contains_pc(self, pc: int) -> bool:
        return (self.text_base <= pc < self.text_end) and pc % 4 == 0

    def symbol(self, name: str) -> int:
        """Address of symbol *name*.

        Raises:
            KeyError: if undefined.
        """
        return self.symbols[name]

    def listing(self) -> str:
        """Human-readable disassembly listing of the text segment."""
        from repro.isa.disasm import dump_listing
        return dump_listing(self.instructions, self.text_base)


__all__ = ["Program"]
