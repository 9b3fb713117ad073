"""Architected register file naming.

32 general-purpose integer registers. Register 0 is hardwired to zero,
exactly as in MIPS / SimpleScalar; the paper's register-move detection
depends on this convention (``ADD rx <- ry + r0`` is a move, and
``ADDI rx <- r0 + imm`` is a constant load).
"""

from __future__ import annotations

NUM_REGS = 32
ZERO_REG = 0

#: Conventional MIPS ABI aliases, index -> preferred printable name.
REG_NAMES = (
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
)

_NAME_TO_NUM = {name: idx for idx, name in enumerate(REG_NAMES)}
_NAME_TO_NUM.update({f"r{idx}": idx for idx in range(NUM_REGS)})
_NAME_TO_NUM["s8"] = 30  # alternate alias for fp


def reg_name(num: int) -> str:
    """Return the canonical ABI name for register number *num*."""
    return REG_NAMES[num]


def reg_number(name: str) -> int:
    """Parse a register reference.

    Accepts ``$t0``, ``t0``, ``$8``, ``8`` and ``r8`` spellings.

    Raises:
        KeyError: if the name is not a valid register reference.
    """
    text = name.strip().lower()
    if text.startswith("$"):
        text = text[1:]
    if text.isascii() and text.isdigit():     # not "²": int() rejects it
        num = int(text)
        if 0 <= num < NUM_REGS:
            return num
        raise KeyError(name)
    if text in _NAME_TO_NUM:
        return _NAME_TO_NUM[text]
    raise KeyError(name)
