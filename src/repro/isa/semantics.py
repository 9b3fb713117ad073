"""Pure functional semantics for the ISA.

:func:`evaluate` computes the architectural effect of one instruction
given a register-read callback, *without* mutating any state. It is the
one definition of what an instruction does. Each opcode's arithmetic
lives in one per-opcode value table (:data:`ALU3`, :data:`ALUI`,
:data:`SHIFT_IMM`, :data:`SHIFT_VAR`, :data:`LOADS`, :data:`STORES`,
:data:`BRANCHES`); the handlers ``evaluate`` dispatches to are built
from those tables, and so are the functional executor's compiled steps
(:mod:`repro.machine.executor`), which call ``evaluate`` itself for a
guarded, scaled or rare instruction. Keeping semantics pure lets the
test suite verify the fill-unit optimizations' semantic equivalence
directly: a transformed instruction must evaluate to the same effect as
the original whenever its enabling conditions hold.

All arithmetic is 32-bit two's complement. Immediates are sign-extended
16-bit values uniformly (including the logical immediates; this is an
internal simplification over MIPS's zero-extension and is consistent
across the assembler, encoder and executor).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Optional, Tuple

from repro.errors import ExecutionError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op

if TYPE_CHECKING:
    from repro.isa.decoded import Decoded

MASK32 = 0xFFFFFFFF


def to_u32(value: int) -> int:
    """Truncate to an unsigned 32-bit value."""
    return value & MASK32


def to_s32(value: int) -> int:
    """Truncate to a signed 32-bit value."""
    value &= MASK32
    return value - 0x100000000 if value & 0x80000000 else value


class MemOp(NamedTuple):
    """A memory access computed by :func:`evaluate`."""

    is_store: bool
    addr: int
    size: int          # bytes: 1, 2 or 4
    signed: bool       # sign-extend loaded value
    store_value: int = 0


class Effect(NamedTuple):
    """The architectural effect of one instruction.

    Exactly the fields relevant to the opcode are populated:

    * ALU ops: ``dest``/``value``.
    * Loads: ``dest`` and ``mem`` (value filled in by the executor).
    * Stores: ``mem``.
    * Control: ``taken``/``target`` (``target`` is an absolute byte
      address; for not-taken conditional branches it is the fallthrough).
    * ``halt`` for HALT, ``serialize`` for SYSCALL/HALT.
    """

    dest: Optional[int] = None
    value: Optional[int] = None
    mem: Optional[MemOp] = None
    is_ctrl: bool = False
    taken: bool = False
    target: Optional[int] = None
    halt: bool = False
    serialize: bool = False


ReadReg = Callable[[int], int]
#: one opcode's semantics: ``(instr, decoded record, read) -> Effect``
Handler = Callable[[Instruction, "Decoded", ReadReg], Effect]


def _rs_value(instr: Instruction, read: ReadReg) -> int:
    """Value of the ``rs`` operand slot, honouring a scale annotation.

    A scaled instruction reads the shift's *source* register and applies
    the short left shift inside the (scaled-add capable) functional
    unit, exactly as the paper's modified ALU does.
    """
    if instr.scale is not None:
        return to_s32(read(instr.scale.src) << instr.scale.shamt)
    return to_s32(read(instr.rs or 0))


def evaluate(instr: Instruction, read: ReadReg) -> Effect:
    """Evaluate *instr* against register values supplied by *read*.

    Raises:
        ExecutionError: for opcodes with no defined semantics (cannot
            happen for instructions produced by the assembler/decoder).
    """
    decoded = instr.decoded
    guard = instr.guard
    if guard is not None:
        # Dynamic predication: an inactive guarded instruction keeps
        # its old destination value (conditional-move semantics). The
        # fill unit only guards simple single-destination ALU ops.
        is_zero = to_s32(read(guard.reg)) == 0
        if is_zero != guard.execute_if_zero:
            dest = decoded.dest
            return Effect(dest,
                          to_s32(read(dest)) if dest is not None else None)
    return _HANDLERS.get(instr.op, _undefined)(instr, decoded, read)


# -- handlers -----------------------------------------------------------

_NO_EFFECT = Effect()
_HALT = Effect(halt=True, serialize=True)
_SERIALIZE = Effect(serialize=True)


def _undefined(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
    raise ExecutionError(f"no semantics for opcode {instr.op.name}")


def _alu3(fn: Callable[[int, int], int]) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        value = fn(_rs_value(instr, read), to_s32(read(instr.rt or 0)))
        return Effect(d.dest, value)
    return handler


def _alui(fn: Callable[[int, int], int]) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        value = fn(_rs_value(instr, read), instr.imm or 0)
        return Effect(d.dest, value)
    return handler


def _shift_imm(fn: Callable[[int, int], int]) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        value = fn(to_s32(read(instr.rs or 0)), (instr.imm or 0) & 0x1F)
        return Effect(d.dest, value)
    return handler


def _shift_var(fn: Callable[[int, int], int]) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        amount = read(instr.rt or 0) & 0x1F
        return Effect(d.dest, fn(to_s32(read(instr.rs or 0)), amount))
    return handler


def _lui(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
    return Effect(d.dest, to_s32(((instr.imm or 0) & 0xFFFF) << 16))


def _load(size: int, signed: bool, indexed: bool) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        if indexed:
            addr = to_u32(_rs_value(instr, read)
                          + to_s32(read(instr.rt or 0)))
        else:
            addr = to_u32(_rs_value(instr, read) + (instr.imm or 0))
        return Effect(d.dest, None, MemOp(False, addr, size, signed))
    return handler


def _store(size: int, indexed: bool) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        if indexed:
            addr = to_u32(_rs_value(instr, read)
                          + to_s32(read(instr.rt or 0)))
            value = to_u32(read(instr.rd or 0))
        else:
            addr = to_u32(_rs_value(instr, read) + (instr.imm or 0))
            value = to_u32(read(instr.rt or 0))
        return Effect(None, None, MemOp(True, addr, size, False, value))
    return handler


def _branch(taken_if: Callable[[int, int], bool]) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        pc = instr.pc if instr.pc is not None else 0
        taken = taken_if(to_s32(read(instr.rs or 0)),
                         to_s32(read(instr.rt or 0)))
        target = (to_u32(pc + (instr.imm or 0)) if taken
                  else to_u32(pc + 4))
        return Effect(None, None, None, True, taken, target)
    return handler


def _j(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
    return Effect(None, None, None, True, True, to_u32(instr.imm or 0))


def _jal(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
    pc = instr.pc if instr.pc is not None else 0
    return Effect(31, to_s32(pc + 4), None, True, True,
                  to_u32(instr.imm or 0))


def _jr(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
    return Effect(None, None, None, True, True,
                  to_u32(read(instr.rs or 0)))


def _jalr(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
    pc = instr.pc if instr.pc is not None else 0
    return Effect(d.dest, to_s32(pc + 4), None, True, True,
                  to_u32(read(instr.rs or 0)))


def _div(a: int, b: int) -> int:
    if b == 0:
        return 0  # architected: division by zero yields zero, no trap
    # C-style truncation toward zero.
    q = abs(a) // abs(b)
    return to_s32(-q if (a < 0) != (b < 0) else q)


# -- per-opcode value tables -------------------------------------------
#
# The handlers above are built from these tables, and so are the
# functional executor's compiled steps (:mod:`repro.machine.executor`):
# each opcode's arithmetic is written once, here. Register operands
# arrive as signed 32-bit values; every value function returns one.

#: ``(rs, rt) -> value`` of the three-register ALU ops
ALU3: Dict[Op, Callable[[int, int], int]] = {
    Op.ADD: lambda a, b: to_s32(a + b),
    Op.SUB: lambda a, b: to_s32(a - b),
    Op.AND: lambda a, b: to_s32(a & b),
    Op.OR: lambda a, b: to_s32(a | b),
    Op.XOR: lambda a, b: to_s32(a ^ b),
    Op.NOR: lambda a, b: to_s32(~(a | b)),
    Op.SLT: lambda a, b: int(a < b),
    Op.SLTU: lambda a, b: int(to_u32(a) < to_u32(b)),
    Op.MULT: lambda a, b: to_s32(a * b),
    Op.DIV: _div,
}

#: ``(rs, imm) -> value`` of the immediate ALU ops
ALUI: Dict[Op, Callable[[int, int], int]] = {
    Op.ADDI: lambda a, i: to_s32(a + i),
    Op.ANDI: lambda a, i: to_s32(a & i),
    Op.ORI: lambda a, i: to_s32(a | i),
    Op.XORI: lambda a, i: to_s32(a ^ i),
    Op.SLTI: lambda a, i: int(a < i),
    Op.SLTIU: lambda a, i: int(to_u32(a) < to_u32(i)),
}


def _sll(a: int, amount: int) -> int:
    return to_s32(a << amount)


def _srl(a: int, amount: int) -> int:
    return to_s32(to_u32(a) >> amount)


def _sra(a: int, amount: int) -> int:
    return to_s32(a >> amount)      # on the signed value


#: ``(rs, amount) -> value`` of the shifts by an immediate amount
#: (``imm & 0x1F``) ...
SHIFT_IMM: Dict[Op, Callable[[int, int], int]] = {
    Op.SLL: _sll, Op.SRL: _srl, Op.SRA: _sra}
#: ... and by a register amount (``rt & 0x1F``)
SHIFT_VAR: Dict[Op, Callable[[int, int], int]] = {
    Op.SLLV: _sll, Op.SRLV: _srl, Op.SRAV: _sra}

#: loads: ``(size in bytes, sign-extend, indexed)``; an indexed
#: address is ``rs + rt``, any other ``rs + imm``
LOADS: Dict[Op, Tuple[int, bool, bool]] = {
    Op.LW: (4, True, False),
    Op.LH: (2, True, False),
    Op.LHU: (2, False, False),
    Op.LB: (1, True, False),
    Op.LBU: (1, False, False),
    Op.LWX: (4, True, True),
    Op.LBX: (1, True, True),
}

#: stores: ``(size in bytes, indexed)``; an indexed store writes
#: ``rd`` to ``rs + rt``, any other ``rt`` to ``rs + imm``
STORES: Dict[Op, Tuple[int, bool]] = {
    Op.SW: (4, False),
    Op.SH: (2, False),
    Op.SB: (1, False),
    Op.SWX: (4, True),
    Op.SBX: (1, True),
}

#: ``(rs, rt) -> taken`` of the conditional branches
BRANCHES: Dict[Op, Callable[[int, int], bool]] = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLEZ: lambda a, b: a <= 0,
    Op.BGTZ: lambda a, b: a > 0,
    Op.BLTZ: lambda a, b: a < 0,
    Op.BGEZ: lambda a, b: a >= 0,
}

_HANDLERS: Dict[Op, Handler] = {
    Op.NOP: lambda instr, d, read: _NO_EFFECT,
    Op.HALT: lambda instr, d, read: _HALT,
    Op.SYSCALL: lambda instr, d, read: _SERIALIZE,
    **{op: _alu3(fn) for op, fn in ALU3.items()},
    **{op: _alui(fn) for op, fn in ALUI.items()},
    **{op: _shift_imm(fn) for op, fn in SHIFT_IMM.items()},
    **{op: _shift_var(fn) for op, fn in SHIFT_VAR.items()},
    Op.LUI: _lui,
    **{op: _load(*shape) for op, shape in LOADS.items()},
    **{op: _store(*shape) for op, shape in STORES.items()},
    **{op: _branch(fn) for op, fn in BRANCHES.items()},
    Op.J: _j,
    Op.JAL: _jal,
    Op.JR: _jr,
    Op.JALR: _jalr,
}

__all__ = ["Effect", "MemOp", "evaluate", "to_u32",
           "to_s32", "MASK32", "ALU3", "ALUI", "SHIFT_IMM", "SHIFT_VAR",
           "LOADS", "STORES", "BRANCHES"]
