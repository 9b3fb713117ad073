"""In-pipeline instruction representation.

:class:`Instruction` is the single representation used everywhere: the
assembler produces them, the functional machine executes them, and the
fill unit stores them inside trace segments (the program's own
instructions, and transformed copies of those it rewrites).

Fill-unit annotations (``move_flag``, ``scale``, ``reassociated``)
model the extra per-instruction bits the paper adds to each trace
cache line: 1 bit for register moves and 2 bits for scaled adds. The
placement field and the checkpoint-block numbers belong to the line
(:class:`~repro.tracecache.segment.TraceSegment`'s ``slots``,
``block_ids`` and ``flow_ids``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Tuple

from repro.isa.opcodes import Format, Op, OpClass, OpInfo, op_info
from repro.isa.registers import ZERO_REG

if TYPE_CHECKING:
    from repro.isa.decoded import Decoded

#: an operand tuple before ``None`` (unused-slot) filtering.
_RawRegs = Tuple[Optional[int], ...]


@dataclass(frozen=True)
class GuardAnnotation:
    """Dynamic-predication annotation (paper §1's "dynamic predication
    of hard-to-predict short forward branches").

    A guarded instruction executes conditionally: when the guard fails
    it writes its *old* destination value back (conditional-move
    semantics), converting the control dependence of a short forward
    branch into a data dependence. ``execute_if_zero`` selects the
    sense: True means the instruction is active when the guard register
    is zero.
    """

    reg: int
    execute_if_zero: bool


@dataclass(frozen=True)
class ScaleAnnotation:
    """Scaled-add annotation: the ``rs`` operand slot is to be read as
    ``(src << shamt)`` instead of the architected ``rs`` register.

    ``shamt`` is limited to 3 bits by the fill unit (two extra stored
    bits plus the implicit non-zero constraint), mirroring the paper's
    ALU path-length argument.
    """

    src: int
    shamt: int


@dataclass
class Instruction:
    """One architected instruction, plus fill-unit annotations.

    Fields ``rd``/``rs``/``rt``/``imm`` are interpreted per the opcode's
    :class:`~repro.isa.opcodes.Format`; unused fields are ``None``.
    ``imm`` holds the immediate, shift amount, branch byte-displacement
    or absolute jump target, depending on format.
    """

    op: Op
    rd: Optional[int] = None
    rs: Optional[int] = None
    rt: Optional[int] = None
    imm: Optional[int] = None
    pc: Optional[int] = None

    # --- fill-unit annotations (not architecturally visible) ---
    move_flag: bool = False
    scale: Optional[ScaleAnnotation] = None
    guard: Optional[GuardAnnotation] = None
    reassociated: bool = False
    #: set when a source operand was rewritten to bypass a marked move
    move_bypassed: bool = False

    def copy(self) -> "Instruction":
        """Return an independent copy (what
        :meth:`~repro.tracecache.segment.TraceSegment.rewrite` puts in
        place of a segment entry, so no pass writes the program image).

        The copy shares this instruction's :class:`~repro.isa.decoded.
        Decoded` record, if it has one, until the fill unit re-decodes
        the rewritten entry."""
        clone = Instruction.__new__(Instruction)
        clone.__dict__ = self.__dict__.copy()
        return clone

    @cached_property
    def decoded(self) -> "Decoded":
        """This instruction's :class:`~repro.isa.decoded.Decoded`
        record, built on first read (or shared by :meth:`copy`, or
        assigned when the fill unit re-decodes a rewritten segment
        entry) and then a plain attribute load."""
        from repro.isa.decoded import Decoded
        return Decoded(self)

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    @property
    def info(self) -> OpInfo:
        return op_info(self.op)

    @property
    def opclass(self) -> OpClass:
        return op_info(self.op).opclass

    @property
    def format(self) -> Format:
        return op_info(self.op).format

    def dest(self) -> Optional[int]:
        """Architected destination register, or ``None``.

        Writes to register zero are architecturally discarded and
        reported as no destination.
        """
        fmt = self.format
        if fmt in (Format.R3, Format.R2I, Format.SHIFT, Format.LUI,
                   Format.LOAD, Format.LOADX, Format.JALR):
            return self.rd if self.rd != ZERO_REG else None
        if self.op is Op.JAL:
            return 31
        return None

    def sources(self) -> tuple[int, ...]:
        """Architected source registers, annotations applied.

        A marked move reads only its move source. A scaled add reads the
        shift's source in place of the architected ``rs``.
        """
        if self.move_flag:
            src = move_source(self)
            return () if src is None else (src,)
        fmt = self.format
        base: _RawRegs
        if fmt in (Format.R3, Format.LOADX, Format.BR2):
            base = (self.rs, self.rt)
        elif fmt in (Format.R2I, Format.SHIFT, Format.LOAD, Format.JR,
                     Format.JALR, Format.BR1):
            base = (self.rs,)
        elif fmt is Format.STORE:
            base = (self.rs, self.rt)
        elif fmt is Format.STOREX:
            base = (self.rd, self.rs, self.rt)
        else:
            base = ()
        if self.scale is not None:
            base = self._scaled(base)
        if self.guard is not None:
            # A guarded instruction also reads its guard register and
            # its own destination (the value kept when the guard fails).
            extra: _RawRegs = (self.guard.reg,)
            dest = self.dest()
            if dest is not None:
                extra += (dest,)
            base = tuple(base) + extra
        return tuple(reg for reg in base if reg is not None)

    def _scaled(self, base: _RawRegs) -> _RawRegs:
        """Replace the ``rs`` operand slot with the scale source.

        The ``rs`` slot is positionally fixed per format: index 0 for
        R3/LOADX/R2I-like tuples, index 1 for STOREX (whose first source
        is the store value carried in ``rd``).
        """
        scale = self.scale
        assert scale is not None
        out = list(base)
        slot = 1 if self.format is Format.STOREX else 0
        out[slot] = scale.src
        return tuple(out)

    def mem_split(self) -> Tuple[_RawRegs, Optional[int]]:
        """For memory instructions: ``(address_regs, store_value_reg)``.

        Address registers honour a scale annotation; the store value
        register is ``None`` for loads. The same architected register
        may appear in both roles (e.g. ``sw $t0, 0($t0)``).
        """
        fmt = self.format
        base = self.scale.src if self.scale is not None else self.rs
        if fmt is Format.LOAD:
            return (base,), None
        if fmt is Format.LOADX:
            return (base, self.rt), None
        if fmt is Format.STORE:
            return (base,), self.rt
        if fmt is Format.STOREX:
            return (base, self.rt), self.rd
        return self.sources(), None

    # -- control-flow classification ----------------------------------
    # The reference definitions behind the decoded record's flags; the
    # fill unit's passes call them per segment instruction, so each
    # makes exactly one op_info lookup instead of going through the
    # ``opclass`` property.

    def is_cond_branch(self) -> bool:
        return op_info(self.op).opclass is OpClass.BRANCH

    def is_ctrl(self) -> bool:
        return op_info(self.op).opclass in (
            OpClass.BRANCH, OpClass.JUMP, OpClass.CALL,
            OpClass.INDIRECT, OpClass.SYSCALL)

    def is_call(self) -> bool:
        return op_info(self.op).opclass is OpClass.CALL

    def is_return(self) -> bool:
        """JR through the link register is treated as a return."""
        return self.op is Op.JR and self.rs == 31

    def is_indirect(self) -> bool:
        return op_info(self.op).opclass is OpClass.INDIRECT \
            or self.op is Op.JALR

    def is_serializing(self) -> bool:
        return op_info(self.op).opclass is OpClass.SYSCALL

    def is_mem(self) -> bool:
        return op_info(self.op).opclass in (OpClass.LOAD, OpClass.STORE)

    def is_load(self) -> bool:
        return op_info(self.op).opclass is OpClass.LOAD

    def is_store(self) -> bool:
        return op_info(self.op).opclass is OpClass.STORE

    def terminates_segment(self) -> bool:
        """True when the fill unit must end a trace segment after this
        instruction: returns, indirect jumps and serializing
        instructions terminate; calls and direct jumps do not.

        (INDIRECT covers JR and with it every return.)
        """
        opclass = op_info(self.op).opclass
        return (opclass is OpClass.INDIRECT
                or opclass is OpClass.SYSCALL
                or self.op is Op.JALR)

    def __str__(self) -> str:  # pragma: no cover - convenience only
        from repro.isa.disasm import disassemble
        return disassemble(self)


def move_source(instr: Instruction) -> Optional[int]:
    """Detect a register-to-register move, returning the source register.

    Mirrors the fill unit's detector for instructions that "pass an
    input operand unchanged to the destination". Returns ``None`` when
    the instruction is not a detectable move or writes register zero
    (in which case it is a no-op, not a move).

    Detected idioms (SimpleScalar/MIPS convention, ``r0 == 0``):

    * ``ADDI/ORI/XORI rd, rs, 0``
    * ``ADD/OR/XOR rd, rs, r0`` and ``ADD/OR/XOR rd, r0, rt``
    * ``SUB rd, rs, r0``
    * ``SLL/SRL/SRA rd, rs, 0``
    * ``ANDI rd, rs, 0`` (a zero: a move from ``r0``)
    """
    if instr.rd in (None, ZERO_REG):
        return None
    op = instr.op
    if op in (Op.ADDI, Op.ORI, Op.XORI) and instr.imm == 0:
        return instr.rs
    if op in (Op.ADD, Op.OR, Op.XOR):
        if instr.rt == ZERO_REG:
            return instr.rs
        if instr.rs == ZERO_REG:
            return instr.rt
        return None
    if op is Op.SUB and instr.rt == ZERO_REG:
        return instr.rs
    if op in (Op.SLL, Op.SRL, Op.SRA) and instr.imm == 0:
        return instr.rs
    if op is Op.ANDI and instr.imm == 0:
        return ZERO_REG
    return None


def make_nop() -> Instruction:
    """A fresh NOP instruction."""
    return Instruction(Op.NOP)


__all__ = ["Instruction", "GuardAnnotation", "ScaleAnnotation",
           "move_source", "make_nop"]
