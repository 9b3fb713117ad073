"""Architectural register state."""

from __future__ import annotations

from repro.isa.registers import NUM_REGS, ZERO_REG, reg_name
from repro.isa.semantics import to_s32


class ArchState:
    """The 32 architected integer registers plus the PC.

    Register zero reads as zero and ignores writes, matching the ISA
    convention the move-detection logic relies on. Values are stored as
    signed 32-bit Python ints.
    """

    __slots__ = ("regs", "pc")

    def __init__(self, pc: int = 0) -> None:
        self.regs = [0] * NUM_REGS
        self.pc = pc

    def read_reg(self, num: int) -> int:
        return self.regs[num]

    def write_reg(self, num: int, value: int) -> None:
        if num != ZERO_REG:
            self.regs[num] = to_s32(value)

    def copy(self) -> "ArchState":
        other = ArchState(self.pc)
        other.regs = list(self.regs)
        return other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchState):
            return NotImplemented
        return self.regs == other.regs and self.pc == other.pc

    def __repr__(self) -> str:
        nonzero = {reg_name(idx): value
                   for idx, value in enumerate(self.regs) if value}
        return f"ArchState(pc={self.pc:#x}, {nonzero})"


__all__ = ["ArchState"]
