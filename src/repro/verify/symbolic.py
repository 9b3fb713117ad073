"""Symbolic dataflow evaluation of trace segments.

Evaluates a segment *without executing anything*: every register starts
as an opaque live-in term, each instruction combines terms, and the
final machine state (register terms, an ordered store log, branch
condition terms) is returned for comparison against another segment.

Terms are canonical nested tuples, built so that the fill unit's
algebraic rewrites normalize to identical terms:

* immediate-add chains fold — ``('sum', base, k)`` with constants
  accumulated, so ``ADDI+ADDI`` equals the reassociated single ADDI;
* left shifts by a constant stay explicit — ``('shl', t, k)`` — so a
  scaled-add operand ``(src << shamt)`` equals the SLL+ADD pair it
  collapsed;
* commutative operators sort their operand terms, so scaled-add's
  operand swap is invisible;
* marked moves evaluate to their source's term, so move marking and
  bypass rewriting are invisible.

A trace segment embeds one *path* of execution, so evaluation is
path-sensitive: the recorded direction of each embedded branch becomes
an assumption about its condition term, and guard annotations whose
condition is decided by an assumption fold to the active leg. This is
what lets the verifier prove a predication conversion equivalent to
the original fall-through path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction, move_source
from repro.isa.opcodes import Format, Op, OpClass
from repro.isa.registers import ZERO_REG
from repro.tracecache.segment import TraceSegment

#: A symbolic term: a canonical nested tuple. The first element is a
#: tag; the rest is tag-specific.
Term = Tuple[object, ...]

CONST_ZERO: Term = ("const", 0)

#: Operators whose operand order is architecturally irrelevant.
_COMMUTATIVE = frozenset({Op.ADD, Op.AND, Op.OR, Op.XOR, Op.NOR,
                          Op.MULT})

_LOAD_WIDTH = {Op.LW: "w", Op.LWX: "w", Op.LH: "h", Op.LHU: "hu",
               Op.LB: "b", Op.LBU: "bu"}
_STORE_WIDTH = {Op.SW: "w", Op.SWX: "w", Op.SH: "h", Op.SB: "b",
                Op.SBX: "b"}


def const(value: int) -> Term:
    return ("const", value)


def init(reg: int) -> Term:
    return ("init", reg)


def _term_key(term: Term) -> str:
    return repr(term)


def _split_sum(term: Term) -> Tuple[Optional[Term], int]:
    """Decompose *term* into (symbolic base, constant offset)."""
    if term[0] == "const":
        return None, int(term[1])                    # type: ignore[arg-type]
    if term[0] == "sum":
        return term[1], int(term[2])                 # type: ignore[arg-type]
    return term, 0


def add_const(term: Term, offset: int) -> Term:
    base, acc = _split_sum(term)
    total = acc + offset
    if base is None:
        return const(total)
    if total == 0:
        return base
    return ("sum", base, total)


def add_terms(a: Term, b: Term) -> Term:
    """Canonical symbolic addition (commutative, associative across
    one nesting level, constants folded)."""
    base_a, off_a = _split_sum(a)
    base_b, off_b = _split_sum(b)
    if base_a is None:
        return add_const(b, off_a)
    if base_b is None:
        return add_const(a, off_b)
    pair = tuple(sorted((base_a, base_b), key=_term_key))
    return add_const(("add", pair), off_a + off_b)


def shl(term: Term, amount: int) -> Term:
    if amount == 0:
        return term
    if term[0] == "const":
        return const(int(term[1]) << amount)    # type: ignore[arg-type]
    if term[0] == "shl":
        inner = int(term[2])                    # type: ignore[arg-type]
        return ("shl", term[1], inner + amount)
    return ("shl", term, amount)


def opnode(name: str, operands: Tuple[Term, ...],
           commutative: bool = False) -> Term:
    if commutative:
        operands = tuple(sorted(operands, key=_term_key))
    return ("op", name, operands)


def eq_condition(a: Term, b: Term) -> Term:
    pair = tuple(sorted((a, b), key=_term_key))
    return ("eq", pair)


def _sub(part: object) -> str:
    """Render a term element known (by tag) to itself be a term."""
    return render_term(part)                    # type: ignore[arg-type]


def _subs(parts: object) -> List[str]:
    """Render a term element known to be a tuple of terms."""
    return [_sub(p) for p in parts]             # type: ignore[union-attr]


def render_term(term: Term, depth: int = 0) -> str:
    """A compact human-readable rendering for violation messages."""
    tag = term[0]
    if tag == "const":
        return str(term[1])
    if tag == "init":
        return f"r{term[1]}@in"
    if tag == "sum":
        return f"({_sub(term[1])} + {term[2]})"
    if tag == "add":
        return "(" + " + ".join(_subs(term[1])) + ")"
    if tag == "shl":
        return f"({_sub(term[1])} << {term[2]})"
    if tag == "op":
        return f"{term[1]}({', '.join(_subs(term[2]))})"
    if tag == "load":
        return f"load.{term[1]}[{_sub(term[2])}]#{term[3]}"
    if tag == "eq":
        a, b = term[1]                          # type: ignore[misc]
        return f"({render_term(a)} == {render_term(b)})"
    if tag == "lez":
        return f"({_sub(term[1])} <= 0)"
    if tag == "ltz":
        return f"({_sub(term[1])} < 0)"
    if tag == "select":
        return (f"sel({_sub(term[1])}=={term[2]} ? "
                f"{_sub(term[3])} : {_sub(term[4])})")
    if tag == "ra":
        return f"ra@{term[1]:#x}"               # type: ignore[str-format]
    return repr(term)


@dataclass(frozen=True)
class StoreRecord:
    """One store in segment order."""

    width: str
    address: Term
    value: Term
    index: int              # instruction index that produced the store


@dataclass(frozen=True)
class BranchCondition:
    """One surviving conditional branch's condition."""

    pc: int
    index: int
    condition: Term
    #: True when the branch is taken exactly when the condition holds.
    taken_iff: bool


@dataclass
class SymbolicState:
    """The result of evaluating one segment."""

    #: final register terms; registers never written stay absent
    #: (their value is the live-in term by definition).
    regs: Dict[int, Term] = field(default_factory=dict)
    stores: List[StoreRecord] = field(default_factory=list)
    branches: List[BranchCondition] = field(default_factory=list)
    #: path assumptions: canonical condition term -> truth value on
    #: the embedded path.
    assumptions: Dict[Term, bool] = field(default_factory=dict)

    def read(self, reg: Optional[int]) -> Term:
        if reg is None or reg == ZERO_REG:
            return CONST_ZERO
        return self.regs.get(reg, init(reg))

    def final_value(self, reg: int) -> Term:
        return self.read(reg)


def branch_condition(instr: Instruction,
                     state: SymbolicState) -> Tuple[Term, bool]:
    """The canonical condition term for a conditional branch, plus
    whether taken means the condition is true."""
    if instr.op in (Op.BEQ, Op.BNE):
        cond = eq_condition(state.read(instr.rs), state.read(instr.rt))
        return cond, instr.op is Op.BEQ
    if instr.op in (Op.BLEZ, Op.BGTZ):
        return ("lez", state.read(instr.rs)), instr.op is Op.BLEZ
    # BLTZ / BGEZ
    return ("ltz", state.read(instr.rs)), instr.op is Op.BLTZ


def _operand_rs(instr: Instruction, state: SymbolicState) -> Term:
    """The rs-slot operand term, honouring a scale annotation."""
    if instr.scale is not None:
        return shl(state.read(instr.scale.src), instr.scale.shamt)
    return state.read(instr.rs)


def _alu_term(instr: Instruction, state: SymbolicState) -> Term:
    """The value computed by a (non-memory) value-producing
    instruction, annotations applied."""
    if instr.scale is None:
        # Normalize every detectable move idiom — marked or not — to
        # its source term: ``xor rd, zero, rt`` IS ``rt``
        # architecturally, and the moves pass exploits exactly these
        # identities when it rewrites consumers through its alias map.
        # (A bogus move *flag* on a non-idiom is lint's domain; the
        # fallthrough models the architected computation.)
        src = move_source(instr)
        if src is not None:
            return state.read(src)
    op = instr.op
    if op is Op.ADD:
        return add_terms(_operand_rs(instr, state), state.read(instr.rt))
    if op is Op.ADDI:
        return add_const(_operand_rs(instr, state), instr.imm or 0)
    if op is Op.SLL:
        return shl(state.read(instr.rs), instr.imm or 0)
    if op is Op.LUI:
        return const((instr.imm or 0) << 16)
    # Zero-identity folds, mirroring the move idioms: when an operand
    # *value* is zero (not necessarily the zero register — e.g. a
    # register the segment itself zeroed), ``x ^ 0``, ``x | 0`` and
    # ``x - 0`` are ``x``. The moves pass's alias rewriting relies on
    # these identities, so the evaluator must too.
    if op in (Op.XOR, Op.OR):
        a, b = _operand_rs(instr, state), state.read(instr.rt)
        if a == CONST_ZERO:
            return b
        if b == CONST_ZERO:
            return a
        return opnode(op.value, (a, b), commutative=True)
    if op is Op.SUB:
        a, b = _operand_rs(instr, state), state.read(instr.rt)
        if b == CONST_ZERO:
            return a
        return opnode(op.value, (a, b))
    fmt = instr.format
    if fmt is Format.R3:
        return opnode(op.value,
                      (_operand_rs(instr, state), state.read(instr.rt)),
                      commutative=op in _COMMUTATIVE)
    if fmt in (Format.R2I, Format.SHIFT):
        return opnode(op.value,
                      (_operand_rs(instr, state), const(instr.imm or 0)))
    return opnode(op.value, (_operand_rs(instr, state),))


def _address_term(instr: Instruction, state: SymbolicState) -> Term:
    """The effective-address term of a memory instruction."""
    base = _operand_rs(instr, state)
    fmt = instr.format
    if fmt in (Format.LOAD, Format.STORE):
        return add_const(base, instr.imm or 0)
    # Indexed forms: base register (rs slot, scalable) plus index.
    return add_terms(base, state.read(instr.rt))


def _write(state: SymbolicState, instr: Instruction, dest: int,
           computed: Term) -> None:
    """Commit *computed* to *dest*, folding a guard annotation through
    the path assumptions when its outcome is known."""
    guard = instr.guard
    if guard is None:
        state.regs[dest] = computed
        return
    cond = eq_condition(state.read(guard.reg), CONST_ZERO)
    known = state.assumptions.get(cond)
    old = state.read(dest)
    if known is not None:
        active = known == guard.execute_if_zero
        state.regs[dest] = computed if active else old
    else:
        state.regs[dest] = ("select", cond, guard.execute_if_zero,
                            computed, old)


def evaluate_segment(
        segment: TraceSegment,
        assumptions: Optional[Dict[Term, bool]] = None) -> SymbolicState:
    """Symbolically evaluate *segment* along its embedded path.

    *assumptions* seeds the path-assumption map (pass the original
    segment's assumptions when evaluating its optimized counterpart, so
    guard folding sees the branch directions predication consumed).
    """
    state = SymbolicState()
    if assumptions:
        state.assumptions.update(assumptions)
    directions = {b.index: b.direction for b in segment.branches}
    for idx, instr in enumerate(segment.instrs):
        op = instr.op
        if op is Op.NOP:
            continue
        opclass = instr.opclass
        if opclass is OpClass.BRANCH:
            cond, taken_iff = branch_condition(instr, state)
            state.branches.append(
                BranchCondition(instr.pc or 0, idx, cond, taken_iff))
            if idx in directions:
                truth = (directions[idx] if taken_iff
                         else not directions[idx])
                state.assumptions.setdefault(cond, truth)
            continue
        if opclass in (OpClass.JUMP, OpClass.INDIRECT, OpClass.SYSCALL):
            continue
        if opclass is OpClass.CALL:
            dest = instr.dest()
            if dest is not None:
                state.regs[dest] = ("ra", instr.pc or 0)
            continue
        if opclass is OpClass.LOAD:
            dest = instr.dest()
            if dest is None:
                continue
            value: Term = ("load", _LOAD_WIDTH[op],
                           _address_term(instr, state),
                           len(state.stores))
            _write(state, instr, dest, value)
            continue
        if opclass is OpClass.STORE:
            value_reg = instr.rd if instr.format is Format.STOREX \
                else instr.rt
            state.stores.append(StoreRecord(
                width=_STORE_WIDTH[op],
                address=_address_term(instr, state),
                value=state.read(value_reg),
                index=idx))
            continue
        dest = instr.dest()
        if dest is None:
            continue
        _write(state, instr, dest, _alu_term(instr, state))
    return state


def written_registers(segment: TraceSegment) -> Dict[int, int]:
    """Map each register written by *segment* to the index of its
    final (surviving) writer."""
    writers: Dict[int, int] = {}
    for idx, instr in enumerate(segment.instrs):
        dest = instr.dest()
        if dest is not None:
            writers[dest] = idx
    return writers


__all__ = ["Term", "SymbolicState", "StoreRecord", "BranchCondition",
           "evaluate_segment", "written_registers", "render_term",
           "add_terms", "add_const", "shl", "opnode", "const", "init",
           "eq_condition", "branch_condition", "CONST_ZERO"]
