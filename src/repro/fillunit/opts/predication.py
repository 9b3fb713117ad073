"""Dynamic predication of hard-to-predict short forward branches.

The paper's introduction names this transformation class explicitly:
"dynamic predication of hard-to-predict short forward branches are some
examples" of what the fill unit can do. This pass implements the
minimal hammock case:

    beq  $rx, $zero, skip      # hard to predict, skips ONE instruction
    <simple ALU instruction>
    skip: ...

becomes, inside the trace segment,

    nop                        # the branch is gone — no prediction,
                               # no misprediction, no predictor slot
    <same instruction>  ; guard($rx != 0)
    ...

converting the control dependence into a data dependence: the guarded
instruction always issues and writes either its computed value or its
old destination value (conditional-move semantics). The resulting
segment is correct on BOTH branch outcomes, so it matches the actual
path at fetch whichever way the branch goes.

Applicability (all conservative):

* the branch compares a register against ``$zero`` (``beq``/``bne``) —
  its condition IS a register, so no predicate computation is needed;
* the embedded path fell through (the skipped instruction is in the
  segment) and the branch displacement skips exactly that instruction;
* the skipped instruction is a simple ALU op with a destination —
  no memory access, no control, no prior annotation;
* the branch is *hard*: not promoted by the bias table (strongly
  biased branches predict nearly perfectly, and predication would only
  lengthen their dependence chains — the paper's framing).
"""

from __future__ import annotations

from repro.fillunit.opts.base import OptimizationPass, PassContext
from repro.isa.instruction import GuardAnnotation
from repro.isa.opcodes import Op
from repro.tracecache.segment import TraceSegment


class PredicationPass(OptimizationPass):
    """If-convert single-instruction hammocks on hard branches."""

    name = "predication"
    surface = frozenset({"squash", "guard", "branches"})

    def apply(self, segment: TraceSegment, ctx: PassContext) -> dict:
        converted = 0
        keep_branches = []
        for info in segment.branches:
            idx = info.index
            if self._convertible(segment, info, ctx):
                branch = segment.instrs[idx]
                segment.rewrite(idx + 1, guard=GuardAnnotation(
                    reg=branch.rs,
                    # BEQ skips when rs == 0: the body runs when rs != 0.
                    execute_if_zero=(branch.op is Op.BNE)))
                segment.squash(idx)
                converted += 1
            else:
                keep_branches.append(info)
        segment.branches = keep_branches
        return {"predicated_branches": converted}

    @staticmethod
    def _convertible(segment: TraceSegment, info, ctx: PassContext) -> bool:
        idx = info.index
        branch = segment.instrs[idx]
        if branch.op not in (Op.BEQ, Op.BNE) or branch.rt != 0:
            return False
        if info.promoted or info.direction:
            # Promoted = easy to predict; taken-path segments do not
            # contain the skipped instruction at all.
            return False
        if ctx.bias is not None and ctx.bias.is_promoted(info.pc):
            return False
        if idx + 1 >= len(segment.instrs):
            return False
        if branch.imm != 8:
            return False                  # must skip exactly one slot
        body = segment.instrs[idx + 1]
        if (body.dest() is None or body.is_mem() or body.is_ctrl()
                or body.is_serializing() or body.guard is not None
                or body.scale is not None or body.move_flag):
            return False
        if body.op is Op.NOP:
            return False
        return True


__all__ = ["PredicationPass"]
