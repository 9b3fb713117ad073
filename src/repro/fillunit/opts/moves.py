"""Register-move marking (paper §4.2).

Two cooperating transformations:

1. **Marking.** Instructions that pass an input operand unchanged to
   their destination (``ADDI rx <- ry + 0`` and friends) get the 1-bit
   ``move_flag``. The rename logic then completes them by copying the
   source mapping — no reservation station, no functional unit, no
   bypass-network trip.

2. **Dependent rewriting.** Because rename must read the move source's
   mapping before writing the destination's, trace-internal consumers
   of the move are rewritten to source the move's *source* register
   directly, avoiding a cycle of delay (paper: "The fill unit handles
   this by modifying instructions within the trace cache line which are
   dependent upon the move operation to be dependent upon the source of
   the move instead.").

The rewriting uses a per-segment alias map: ``alias[r] == s`` asserts
that at the current point in the trace, register ``r`` holds the same
value as register ``s``. Aliases die when either side is redefined.
"""

from __future__ import annotations

from repro.fillunit.opts.base import OptimizationPass, PassContext
from repro.isa.instruction import move_source
from repro.isa.opcodes import Format, Op, op_info
from repro.tracecache.segment import TraceSegment

#: The register-operand fields a move's dependents read, by format.
#: Indirect-jump sources (``JR``/``JALR``) are left alone: rewriting
#: them is architecturally sound but would obscure return-vs-indirect
#: classification, which both the RAS and the segment-termination rule
#: depend on.
_FORMAT_FIELDS = {
    Format.R3: ("rs", "rt"), Format.LOADX: ("rs", "rt"),
    Format.BR2: ("rs", "rt"), Format.STORE: ("rs", "rt"),
    Format.R2I: ("rs",), Format.SHIFT: ("rs",), Format.LOAD: ("rs",),
    Format.BR1: ("rs",), Format.STOREX: ("rd", "rs", "rt"),
}

#: the same fields by opcode, so the pass looks them up in one step
_SOURCE_FIELDS = {op: _FORMAT_FIELDS.get(op_info(op).format, ())
                  for op in Op}


def _rewrite_sources(segment: TraceSegment, index: int,
                     alias: dict) -> int:
    """Rewrite entry *index*'s register sources through *alias*;
    returns the number of operands changed."""
    instr = segment.instrs[index]
    fields: dict = {}
    for name in _SOURCE_FIELDS[instr.op]:
        reg = getattr(instr, name)
        new = alias.get(reg, reg)
        if new != reg:
            fields[name] = new
    if fields:
        segment.rewrite(index, move_bypassed=True, **fields)
    return len(fields)


class RegisterMovePass(OptimizationPass):
    """Mark register moves; rewrite their trace-internal dependents."""

    name = "moves"
    surface = frozenset({"move_flag", "move_bypassed",
                         "rd", "rs", "rt"})

    def apply(self, segment: TraceSegment, ctx: PassContext) -> dict:
        alias: dict = {}
        marked = 0
        rewritten_operands = 0
        rewritten = segment.rewritten
        for index, instr in enumerate(segment.instrs):
            # Rewrite sources first so detection sees final operands
            # (a move of a move chains to the ultimate source).
            if alias:
                rewritten_operands += _rewrite_sources(segment, index,
                                                       alias)
                instr = segment.instrs[index]
            decoded = instr.decoded
            # An entry no pass has rewritten matches its record; a
            # rewritten one is detected from its fields.
            src = (move_source(instr) if index in rewritten
                   else decoded.move_candidate)
            # A guarded instruction only conditionally updates its
            # destination; rename cannot complete it as an
            # unconditional mapping copy, so it is never a move.
            if src is not None and instr.guard is None:
                instr = segment.rewrite(index, move_flag=True)
                marked += 1
            dest = decoded.dest
            if dest is None:
                continue
            if alias:
                # Redefinition of `dest` kills aliases on both sides.
                alias.pop(dest, None)
                for key in [k for k, v in alias.items() if v == dest]:
                    alias.pop(key)
            if instr.move_flag and src != dest:
                alias[dest] = alias.get(src, src)
        return {"moves_marked": marked,
                "move_operands_rewritten": rewritten_operands}


__all__ = ["RegisterMovePass"]
