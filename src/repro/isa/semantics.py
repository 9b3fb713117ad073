"""Pure functional semantics for the ISA.

:func:`evaluate` computes the architectural effect of one instruction
given a register-read callback, *without* mutating any state. It is the
one definition of what an instruction does: the functional machine
(:mod:`repro.machine.executor`) applies the returned :class:`Effect`,
calling an unguarded instruction's handler directly (``evaluate`` adds
only the predication guard in front of it). Keeping semantics pure lets
the test suite verify the fill-unit optimizations' semantic equivalence
directly: a transformed instruction must evaluate to the same effect as
the original whenever its enabling conditions hold.

Every executed instruction builds an :class:`Effect`, and every memory
access a :class:`MemOp`, so both are named tuples; the handlers build
them positionally, the hot ones through ``tuple.__new__``.

All arithmetic is 32-bit two's complement. Immediates are sign-extended
16-bit values uniformly (including the logical immediates; this is an
internal simplification over MIPS's zero-extension and is consistent
across the assembler, encoder and executor).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional

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

    Dispatch goes through the instruction's decoded record, which
    carries its opcode's handler (see :func:`semantics_for`).

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
    handler: Handler = decoded.semantics
    return handler(instr, decoded, read)


def semantics_for(op: Op) -> Handler:
    """The handler :func:`evaluate` dispatches to for *op*; looked up
    once per instruction, when its decoded record is built."""
    return _HANDLERS.get(op, _undefined)


# -- handlers -----------------------------------------------------------

_NO_EFFECT = Effect()
_HALT = Effect(halt=True, serialize=True)
_SERIALIZE = Effect(serialize=True)

#: builds an :class:`Effect` or :class:`MemOp` from all of its fields
#: in order, skipping the named tuple's argument handling (the hot
#: handlers below run once per executed instruction)
_new: Callable[..., Any] = tuple.__new__


def _undefined(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
    raise ExecutionError(f"no semantics for opcode {instr.op.name}")


def _alu3(fn: Callable[[int, int], int]) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        value = fn(_rs_value(instr, read), to_s32(read(instr.rt or 0)))
        return _new(Effect,
                    (d.dest, value, None, False, False, None, False, False))
    return handler


def _alui(fn: Callable[[int, int], int]) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        value = fn(_rs_value(instr, read), instr.imm or 0)
        return _new(Effect,
                    (d.dest, value, None, False, False, None, False, False))
    return handler


def _shift_imm(op: Op) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        a = to_s32(read(instr.rs or 0))
        value = _shift(op, a, (instr.imm or 0) & 0x1F)
        return _new(Effect,
                    (d.dest, value, None, False, False, None, False, False))
    return handler


def _shift_var(op: Op) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        a = to_s32(read(instr.rs or 0))
        amount = read(instr.rt or 0) & 0x1F
        return Effect(d.dest, _shift(op, a, amount))
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
        mem = _new(MemOp, (False, addr, size, signed, 0))
        return _new(Effect,
                    (d.dest, None, mem, False, False, None, False, False))
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
        mem = _new(MemOp, (True, addr, size, False, value))
        return _new(Effect,
                    (None, None, mem, False, False, None, False, False))
    return handler


def _branch(taken_if: Callable[[int, Instruction, ReadReg], bool]
            ) -> Handler:
    def handler(instr: Instruction, d: Decoded, read: ReadReg) -> Effect:
        pc = instr.pc if instr.pc is not None else 0
        taken = taken_if(to_s32(read(instr.rs or 0)), instr, read)
        target = (to_u32(pc + (instr.imm or 0)) if taken
                  else to_u32(pc + 4))
        return _new(Effect,
                    (None, None, None, True, taken, target, False, False))
    return handler


def _rt_s32(instr: Instruction, read: ReadReg) -> int:
    return to_s32(read(instr.rt or 0))


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


def _shift(op: Op, a: int, amount: int) -> int:
    if op is Op.SLL:
        return to_s32(a << amount)
    if op is Op.SRL:
        return to_s32(to_u32(a) >> amount)
    return to_s32(a >> amount)  # SRA on the signed value


def _div(a: int, b: int) -> int:
    if b == 0:
        return 0  # architected: division by zero yields zero, no trap
    # C-style truncation toward zero.
    q = abs(a) // abs(b)
    return to_s32(-q if (a < 0) != (b < 0) else q)


_ALU3: Dict[Op, Callable[[int, int], int]] = {
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

_ALUI: Dict[Op, Callable[[int, int], int]] = {
    Op.ADDI: lambda a, i: to_s32(a + i),
    Op.ANDI: lambda a, i: to_s32(a & i),
    Op.ORI: lambda a, i: to_s32(a | i),
    Op.XORI: lambda a, i: to_s32(a ^ i),
    Op.SLTI: lambda a, i: int(a < i),
    Op.SLTIU: lambda a, i: int(to_u32(a) < to_u32(i)),
}

_HANDLERS: Dict[Op, Handler] = {
    Op.NOP: lambda instr, d, read: _NO_EFFECT,
    Op.HALT: lambda instr, d, read: _HALT,
    Op.SYSCALL: lambda instr, d, read: _SERIALIZE,
    **{op: _alu3(fn) for op, fn in _ALU3.items()},
    **{op: _alui(fn) for op, fn in _ALUI.items()},
    Op.SLL: _shift_imm(Op.SLL),
    Op.SRL: _shift_imm(Op.SRL),
    Op.SRA: _shift_imm(Op.SRA),
    Op.SLLV: _shift_var(Op.SLL),
    Op.SRLV: _shift_var(Op.SRL),
    Op.SRAV: _shift_var(Op.SRA),
    Op.LUI: _lui,
    Op.LW: _load(4, True, False),
    Op.LH: _load(2, True, False),
    Op.LHU: _load(2, False, False),
    Op.LB: _load(1, True, False),
    Op.LBU: _load(1, False, False),
    Op.LWX: _load(4, True, True),
    Op.LBX: _load(1, True, True),
    Op.SW: _store(4, False),
    Op.SH: _store(2, False),
    Op.SB: _store(1, False),
    Op.SWX: _store(4, True),
    Op.SBX: _store(1, True),
    Op.BEQ: _branch(lambda a, instr, read: a == _rt_s32(instr, read)),
    Op.BNE: _branch(lambda a, instr, read: a != _rt_s32(instr, read)),
    Op.BLEZ: _branch(lambda a, instr, read: a <= 0),
    Op.BGTZ: _branch(lambda a, instr, read: a > 0),
    Op.BLTZ: _branch(lambda a, instr, read: a < 0),
    Op.BGEZ: _branch(lambda a, instr, read: a >= 0),
    Op.J: _j,
    Op.JAL: _jal,
    Op.JR: _jr,
    Op.JALR: _jalr,
}

__all__ = ["Effect", "MemOp", "evaluate", "semantics_for", "to_u32",
           "to_s32", "MASK32"]
