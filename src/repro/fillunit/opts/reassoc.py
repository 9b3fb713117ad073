"""Reassociation (paper §4.3).

Dependent pairs of immediate-add instructions are rewritten so the
second sources the first's *source* with a combined immediate::

    ADDI rx <- ry + 4          ADDI rx <- ry + 4
    ADDI rz <- rx + 4   ==>    ADDI rz <- ry + 8

removing one step from the dependence chain. The fill unit applies the
rewrite only when the new immediate still fits the 16-bit field (the
trace cache stores unmodified instruction formats) and — mirroring the
paper's methodology — only when the pair crosses a control-flow
boundary, since the compiler already reassociates within basic blocks.
Because segments span branches, calls and even procedure boundaries,
this finds pairs no static multi-block compiler safely can.

The pass keeps a provenance map: ``prov[r] == (base, k, flow)`` asserts
that register ``r`` currently equals ``base + k`` where ``base`` was
read in control-flow region ``flow`` and has not been redefined since.
Chains collapse transitively: a rewritten ADDI re-registers its own
provenance against the original base.
"""

from __future__ import annotations

from repro.fillunit.opts.base import OptimizationPass, PassContext
from repro.isa.opcodes import Op
from repro.tracecache.segment import TraceSegment

_IMM_MIN, _IMM_MAX = -32768, 32767
_ADDI = Op.ADDI


class ReassociationPass(OptimizationPass):
    """Combine immediates of dependent cross-block ADDI pairs."""

    name = "reassoc"
    surface = frozenset({"rs", "imm", "reassociated"})

    def apply(self, segment: TraceSegment, ctx: PassContext) -> dict:
        cross_only = ctx.config.reassoc_cross_flow_only
        flow_ids = segment.flow_ids
        prov: dict = {}
        rewritten = 0
        for index, instr in enumerate(segment.instrs):
            is_addi = instr.op is _ADDI and not instr.move_flag
            if is_addi:
                entry = prov.get(instr.rs)
                if entry is not None:
                    base, acc, def_flow = entry
                    combined = acc + instr.imm
                    crosses = flow_ids[index] != def_flow
                    if not _IMM_MIN <= combined <= _IMM_MAX:
                        # The trace cache stores unmodified instruction
                        # formats: a combined immediate past 16 bits
                        # cannot be encoded.
                        ctx.reject(self.name, "imm_overflow")
                    elif cross_only and not crosses:
                        # The compiler already reassociates inside a
                        # basic block (paper methodology).
                        ctx.reject(self.name, "same_flow")
                    else:
                        instr = segment.rewrite(
                            index, rs=base, imm=combined,
                            reassociated=True)
                        rewritten += 1
            dest = instr.decoded.dest
            if dest is None:
                continue
            # Redefinition invalidates provenance based on `dest` ...
            if prov:
                for key in [k for k, v in prov.items() if v[0] == dest]:
                    prov.pop(key)
                prov.pop(dest, None)
            # ... then the ADDI itself establishes new provenance,
            # unless it consumed its own base (the old value is then
            # unreachable) or it is guarded (a predicated add only
            # conditionally equals base + imm).
            if is_addi and instr.guard is None and instr.rs != dest:
                prov[dest] = (instr.rs, instr.imm, flow_ids[index])
        return {"reassociated": rewritten}


__all__ = ["ReassociationPass"]
