"""The two-pass assembler.

Pass 1 expands pseudo-instructions, lays out the text and data sections
and collects the symbol table; pass 2 resolves symbol references
(branch displacements, jump targets, ``%hi``/``%lo`` halves, immediate
constants and data-word initializers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import re
from typing import List, Optional

from repro.asm import pseudo
from repro.asm.tokenizer import (
    SourceLine,
    fit_field,
    parse_int,
    parse_mem_operand,
    parse_symbol_expr,
    tokenize,
)
from repro.errors import AssemblerError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Op, op_by_mnemonic, op_info
from repro.isa.registers import reg_number
from repro.program.image import Program
from repro.program.loader import STACK_TOP

_HI_RE = re.compile(r"^%hi\((.+)\)$")
_LO_RE = re.compile(r"^%lo\((.+)\)$")

DEFAULT_TEXT_BASE = 0x1000
DEFAULT_DATA_BASE = 0x100000


@dataclass
class _Fixup:
    """A deferred operand resolution."""

    index: int       # instruction index (or data byte offset for words)
    kind: str        # branch | jump | imm | hi | lo | dataword
    expr: str
    line: int


@dataclass
class Assembler:
    """Reusable assembler with configurable section bases."""

    text_base: int = DEFAULT_TEXT_BASE
    data_base: int = DEFAULT_DATA_BASE

    def assemble(self, source: str, name: str = "a.out") -> Program:
        """Assemble *source* into a :class:`Program`.

        Raises:
            AssemblerError: with a source line number on any syntax,
                range or resolution failure.
        """
        state = _Pass1State(self.text_base, self.data_base)
        for srcline in tokenize(source):
            state.process(srcline)
        _resolve(state)
        return Program(
            instructions=state.instrs,
            text_base=self.text_base,
            data=state.data,
            data_base=self.data_base,
            symbols=dict(state.symbols),
            name=name,
        )


def assemble(source: str, name: str = "a.out",
             text_base: int = DEFAULT_TEXT_BASE,
             data_base: int = DEFAULT_DATA_BASE) -> Program:
    """Convenience wrapper around :class:`Assembler`."""
    return Assembler(text_base, data_base).assemble(source, name)


@dataclass
class _Pass1State:
    text_base: int
    data_base: int
    instrs: list = field(default_factory=list)
    data: bytearray = field(default_factory=bytearray)
    symbols: dict = field(default_factory=dict)
    equates: dict = field(default_factory=dict)
    fixups: list = field(default_factory=list)
    section: str = "text"

    # ------------------------------------------------------------------

    def process(self, srcline: SourceLine) -> None:
        if srcline.label is not None:
            self._define_label(srcline.label, srcline.number)
        if srcline.mnemonic is None:
            return
        mnemonic = srcline.mnemonic
        if mnemonic.startswith("."):
            self._directive(mnemonic, srcline.operands, srcline.number)
        elif self.section != "text":
            raise AssemblerError(
                f"instruction {mnemonic!r} outside .text", srcline.number)
        elif mnemonic in pseudo.PSEUDO_MNEMONICS:
            # Substitute .equ constants before expansion so pseudo
            # forms like ``li $t0, SIZE`` see literal values.
            operands = [str(self.equates[op]) if op in self.equates else op
                        for op in srcline.operands]
            for real, ops in pseudo.expand(mnemonic, operands,
                                           srcline.number):
                self._instruction(real, ops, srcline.number)
        else:
            self._instruction(mnemonic, srcline.operands, srcline.number)

    def _define_label(self, label: str, line: int) -> None:
        if label in self.symbols or label in self.equates:
            raise AssemblerError(f"duplicate label {label!r}", line)
        if self.section == "text":
            self.symbols[label] = self.text_base + 4 * len(self.instrs)
        else:
            self.symbols[label] = self.data_base + len(self.data)

    # -- directives ----------------------------------------------------

    def _directive(self, name: str, operands: list, line: int) -> None:
        if name == ".text":
            self.section = "text"
        elif name == ".data":
            self.section = "data"
        elif name == ".equ":
            if len(operands) != 2:
                raise AssemblerError(".equ expects name, value", line)
            self.equates[operands[0]] = parse_int(operands[1], line)
        elif name == ".word":
            self._align(4, line)
            for operand in operands:
                self._emit_word(operand, line)
        elif name == ".half":
            self._align(2, line)
            for operand in operands:
                value = fit_field(self._const(operand, line), 16, name,
                                  line)
                self.data += (value & 0xFFFF).to_bytes(2, "little")
        elif name == ".byte":
            for operand in operands:
                value = fit_field(self._const(operand, line), 8, name,
                                  line)
                self.data += bytes([value & 0xFF])
        elif name == ".space":
            if len(operands) != 1:
                raise AssemblerError(".space expects a size", line)
            self._reserve(self._const(operands[0], line), line)
        elif name == ".align":
            if len(operands) != 1:
                raise AssemblerError(".align expects a size", line)
            self._align(self._const(operands[0], line), line)
        elif name == ".asciiz":
            raise AssemblerError(".asciiz is not supported; use .byte",
                                 line)
        else:
            raise AssemblerError(f"unknown directive {name!r}", line)

    def _align(self, boundary: int, line: int) -> None:
        if self.section != "data" or boundary <= 1:
            return
        self._reserve(-len(self.data) % boundary, line)

    def _reserve(self, count: int, line: int) -> None:
        """Append *count* zero bytes; the data section must stay in
        the data region, which ends where the loader puts the stack."""
        end = self.data_base + len(self.data) + count
        if count < 0 or (count and end > STACK_TOP):
            raise AssemblerError(
                f"cannot reserve {count} bytes in the data region "
                f"{self.data_base:#x}-{STACK_TOP:#x}", line)
        self.data += bytes(count)

    def _emit_word(self, operand: str, line: int) -> None:
        sym = parse_symbol_expr(operand)
        if sym is not None and sym[0] not in self.equates:
            self.fixups.append(
                _Fixup(len(self.data), "dataword", operand, line))
            self.data += bytes(4)
        else:
            value = fit_field(self._const(operand, line), 32, ".word",
                              line)
            self.data += (value & 0xFFFFFFFF).to_bytes(4, "little")

    def _const(self, text: str, line: int) -> int:
        if text in self.equates:
            return self.equates[text]
        return parse_int(text, line)

    # -- instructions ----------------------------------------------------

    def _instruction(self, mnemonic: str, operands: list, line: int) -> None:
        try:
            op = op_by_mnemonic(mnemonic)
        except KeyError:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line)
        fmt = op_info(op).format
        index = len(self.instrs)
        builder = _FORMAT_BUILDERS[fmt]
        instr = builder(self, op, operands, line, index)
        self.instrs.append(instr)

    def _imm_or_fixup(self, text: str, line: int, index: int,
                      kind: str) -> Optional[int]:
        """Resolve *text* now when possible, else record a fixup."""
        text = text.strip()
        hi = _HI_RE.match(text)
        lo = _LO_RE.match(text)
        if hi:
            self.fixups.append(_Fixup(index, "hi", hi.group(1), line))
            return None
        if lo:
            self.fixups.append(_Fixup(index, "lo", lo.group(1), line))
            return None
        if text in self.equates:
            value = self.equates[text]
        else:
            sym = parse_symbol_expr(text)
            if sym is not None:
                self.fixups.append(_Fixup(index, kind, text, line))
                return None
            value = parse_int(text, line)
        if kind == "imm" and not -32768 <= value <= 32767:
            raise AssemblerError(
                f"immediate {value} does not fit in 16 bits", line)
        return value


def _reg(text: str, line: int) -> int:
    try:
        return reg_number(text)
    except KeyError:
        raise AssemblerError(f"invalid register {text!r}", line)


def _need(operands: list, count: int, op: Op, line: int) -> None:
    if len(operands) != count:
        raise AssemblerError(
            f"{op.value} expects {count} operands, got {len(operands)}",
            line)


def _build_r3(state: _Pass1State, op: Op, operands: List[str], line: int,
              index: int) -> Instruction:
    _need(operands, 3, op, line)
    return Instruction(op, rd=_reg(operands[0], line),
                       rs=_reg(operands[1], line),
                       rt=_reg(operands[2], line))


def _build_r2i(state: _Pass1State, op: Op, operands: List[str], line: int,
               index: int) -> Instruction:
    _need(operands, 3, op, line)
    imm = state._imm_or_fixup(operands[2], line, index, "imm")
    return Instruction(op, rd=_reg(operands[0], line),
                       rs=_reg(operands[1], line), imm=imm)


def _build_shift(state: _Pass1State, op: Op, operands: List[str], line: int,
                 index: int) -> Instruction:
    _need(operands, 3, op, line)
    shamt = parse_int(operands[2], line)
    if not 0 <= shamt <= 31:
        raise AssemblerError(f"shift amount {shamt} out of range", line)
    return Instruction(op, rd=_reg(operands[0], line),
                       rs=_reg(operands[1], line), imm=shamt)


def _build_lui(state: _Pass1State, op: Op, operands: List[str], line: int,
               index: int) -> Instruction:
    _need(operands, 2, op, line)
    imm = state._imm_or_fixup(operands[1], line, index, "imm")
    return Instruction(op, rd=_reg(operands[0], line), imm=imm)


def _build_load(state: _Pass1State, op: Op, operands: List[str], line: int,
                index: int) -> Instruction:
    _need(operands, 2, op, line)
    disp, base = parse_mem_operand(operands[1], line)
    imm = state._imm_or_fixup(disp, line, index, "imm")
    return Instruction(op, rd=_reg(operands[0], line),
                       rs=_reg(base, line), imm=imm)


def _build_store(state: _Pass1State, op: Op, operands: List[str], line: int,
                 index: int) -> Instruction:
    _need(operands, 2, op, line)
    disp, base = parse_mem_operand(operands[1], line)
    imm = state._imm_or_fixup(disp, line, index, "imm")
    return Instruction(op, rt=_reg(operands[0], line),
                       rs=_reg(base, line), imm=imm)


def _build_loadx(state: _Pass1State, op: Op, operands: List[str], line: int,
                 index: int) -> Instruction:
    _need(operands, 3, op, line)
    return Instruction(op, rd=_reg(operands[0], line),
                       rs=_reg(operands[1], line),
                       rt=_reg(operands[2], line))


def _build_br2(state: _Pass1State, op: Op, operands: List[str], line: int,
               index: int) -> Instruction:
    _need(operands, 3, op, line)
    imm = state._imm_or_fixup(operands[2], line, index, "branch")
    return Instruction(op, rs=_reg(operands[0], line),
                       rt=_reg(operands[1], line), imm=imm)


def _build_br1(state: _Pass1State, op: Op, operands: List[str], line: int,
               index: int) -> Instruction:
    _need(operands, 2, op, line)
    imm = state._imm_or_fixup(operands[1], line, index, "branch")
    return Instruction(op, rs=_reg(operands[0], line), imm=imm)


def _build_j(state: _Pass1State, op: Op, operands: List[str], line: int,
             index: int) -> Instruction:
    _need(operands, 1, op, line)
    imm = state._imm_or_fixup(operands[0], line, index, "jump")
    return Instruction(op, imm=imm)


def _build_jr(state: _Pass1State, op: Op, operands: List[str], line: int,
              index: int) -> Instruction:
    _need(operands, 1, op, line)
    return Instruction(op, rs=_reg(operands[0], line))


def _build_jalr(state: _Pass1State, op: Op, operands: List[str], line: int,
                index: int) -> Instruction:
    if len(operands) == 1:
        return Instruction(op, rd=31, rs=_reg(operands[0], line))
    _need(operands, 2, op, line)
    return Instruction(op, rd=_reg(operands[0], line),
                       rs=_reg(operands[1], line))


def _build_none(state: _Pass1State, op: Op, operands: List[str], line: int,
                index: int) -> Instruction:
    _need(operands, 0, op, line)
    return Instruction(op)


_FORMAT_BUILDERS = {
    Format.R3: _build_r3,
    Format.R2I: _build_r2i,
    Format.SHIFT: _build_shift,
    Format.LUI: _build_lui,
    Format.LOAD: _build_load,
    Format.STORE: _build_store,
    Format.LOADX: _build_loadx,
    Format.STOREX: _build_loadx,
    Format.BR2: _build_br2,
    Format.BR1: _build_br1,
    Format.J: _build_j,
    Format.JR: _build_jr,
    Format.JALR: _build_jalr,
    Format.NONE: _build_none,
}


def _resolve(state: _Pass1State) -> None:
    """Pass 2: apply all recorded fixups."""
    for fixup in state.fixups:
        value = _symbol_value(state, fixup)
        if fixup.kind == "dataword":
            state.data[fixup.index:fixup.index + 4] = \
                (value & 0xFFFFFFFF).to_bytes(4, "little")
            continue
        instr = state.instrs[fixup.index]
        if fixup.kind == "branch":
            pc = state.text_base + 4 * fixup.index
            disp = value - pc
            if not -131072 <= disp <= 131068:
                raise AssemblerError(
                    f"branch target out of range ({disp} bytes)",
                    fixup.line)
            instr.imm = disp
        elif fixup.kind == "jump":
            instr.imm = value
        elif fixup.kind == "hi":
            hi, _ = pseudo._hi_lo(value)
            instr.imm = hi
        elif fixup.kind == "lo":
            _, lo = pseudo._hi_lo(value)
            instr.imm = lo
        else:  # plain immediate
            if not -32768 <= value <= 32767:
                raise AssemblerError(
                    f"immediate {value} does not fit in 16 bits",
                    fixup.line)
            instr.imm = value


def _symbol_value(state: _Pass1State, fixup: _Fixup) -> int:
    parsed = parse_symbol_expr(fixup.expr)
    if parsed is None:
        return parse_int(fixup.expr, fixup.line)
    name, sign, offset_text = parsed
    if name in state.symbols:
        base = state.symbols[name]
    elif name in state.equates:
        base = state.equates[name]
    else:
        raise AssemblerError(f"undefined symbol {name!r}", fixup.line)
    offset = (state.equates.get(offset_text)
              if offset_text in state.equates
              else parse_int(offset_text, fixup.line))
    return base + sign * offset


__all__ = ["Assembler", "assemble"]
