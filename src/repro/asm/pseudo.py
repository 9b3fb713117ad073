"""Pseudo-instruction expansion.

Pseudo-instructions expand to the same idioms a MIPS-era compiler emits;
in particular ``move`` expands to ``addi rd, rs, 0`` — precisely the
idiom the paper's fill unit detects and marks for zero-cycle execution
in the rename logic.

Expansion happens before operand resolution: each expanded line is a
``(mnemonic, operands)`` pair that goes back through normal parsing.
"""

from __future__ import annotations

from typing import Tuple

from repro.asm.tokenizer import fit_field, parse_int, \
    parse_symbol_expr
from repro.errors import AssemblerError
from repro.isa.semantics import to_s32

#: Assembler temporary used by compare-and-branch expansions.
AT = "$at"

PSEUDO_MNEMONICS = frozenset({
    "move", "li", "la", "b", "ret", "call", "subi", "neg", "not",
    "blt", "bge", "bgt", "ble", "bltu", "bgeu", "seq", "sne", "clear",
})


def _hi_lo(value: int) -> Tuple[int, int]:
    """Split a 32-bit value for a ``lui``/``addi`` pair.

    ``addi`` sign-extends, so the high half is adjusted to compensate:
    ``value == (hi << 16) + sext16(lo)``.
    """
    value = to_s32(value)
    lo = value & 0xFFFF
    lo_signed = lo - 0x10000 if lo & 0x8000 else lo
    hi = ((value - lo_signed) >> 16) & 0xFFFF
    hi_signed = hi - 0x10000 if hi & 0x8000 else hi
    return hi_signed, lo_signed


def expand(mnemonic: str, operands: list, line: int) -> list:
    """Expand one pseudo-instruction into real ``(mnemonic, operands)``
    pairs.

    Raises:
        AssemblerError: on operand-count mismatch.
    """

    def need(count: int) -> None:
        if len(operands) != count:
            raise AssemblerError(
                f"{mnemonic} expects {count} operands, got {len(operands)}",
                line)

    if mnemonic == "move":
        need(2)
        return [("addi", [operands[0], operands[1], "0"])]
    if mnemonic == "clear":
        need(1)
        return [("addi", [operands[0], "$zero", "0"])]
    if mnemonic == "li":
        need(2)
        value = fit_field(parse_int(operands[1], line), 32, "li", line)
        if -32768 <= value <= 32767:
            return [("addi", [operands[0], "$zero", str(value)])]
        hi, lo = _hi_lo(value)
        out = [("lui", [operands[0], str(hi)])]
        if lo:
            out.append(("addi", [operands[0], operands[0], str(lo)]))
        return out
    if mnemonic == "la":
        need(2)
        if parse_symbol_expr(operands[1]) is None:
            # Plain integer address: same as li.
            return expand("li", operands, line)
        # Symbol addresses resolve in pass 2; always emit the full pair
        # so the instruction count is fixed in pass 1.
        return [
            ("lui", [operands[0], f"%hi({operands[1]})"]),
            ("addi", [operands[0], operands[0], f"%lo({operands[1]})"]),
        ]
    if mnemonic == "b":
        need(1)
        return [("j", operands)]
    if mnemonic == "ret":
        need(0)
        return [("jr", ["$ra"])]
    if mnemonic == "call":
        need(1)
        return [("jal", operands)]
    if mnemonic == "subi":
        need(3)
        value = parse_int(operands[2], line)
        return [("addi", [operands[0], operands[1], str(-value)])]
    if mnemonic == "neg":
        need(2)
        return [("sub", [operands[0], "$zero", operands[1]])]
    if mnemonic == "not":
        need(2)
        return [("nor", [operands[0], operands[1], "$zero"])]
    if mnemonic in ("blt", "bge", "bltu", "bgeu"):
        need(3)
        slt = "sltu" if mnemonic.endswith("u") else "slt"
        branch = "bne" if mnemonic.startswith("blt") else "beq"
        return [
            (slt, [AT, operands[0], operands[1]]),
            (branch, [AT, "$zero", operands[2]]),
        ]
    if mnemonic in ("bgt", "ble"):
        need(3)
        branch = "bne" if mnemonic == "bgt" else "beq"
        return [
            ("slt", [AT, operands[1], operands[0]]),
            (branch, [AT, "$zero", operands[2]]),
        ]
    if mnemonic in ("seq", "sne"):
        need(3)
        out = [("xor", [AT, operands[1], operands[2]])]
        if mnemonic == "seq":
            out.append(("sltiu", [operands[0], AT, "1"]))
        else:
            out.append(("sltu", [operands[0], "$zero", AT]))
        return out
    raise AssemblerError(f"unknown pseudo-instruction {mnemonic!r}", line)


__all__ = ["expand", "PSEUDO_MNEMONICS", "AT"]
