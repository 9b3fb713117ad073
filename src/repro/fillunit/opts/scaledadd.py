"""Scaled-add creation (paper §4.4).

An add (or load/store address computation) directly dependent on a
short immediate left shift is collapsed into a scaled add::

    SLL  rw <- rx << 2            SLL  rw <- rx << 2
    ADD  ry <- rw + rz    ==>     ADD  ry <- (rx << 2) + rz   [scaled]

The shift stays in the segment (its result may have other consumers and
the fill unit performs no dead-code elimination), but the add no longer
*waits* for it: the modified ALU shifts the operand by up to 3 bits on
the way into the adder, a one-cycle operation costing roughly two gate
delays. Two extra bits per trace cache instruction hold the shift
amount; the fill unit swaps the add's source operands when needed so
the shifted value sits in the scaled slot.

This is dependence collapsing (Sazeides et al.) with the fill unit as
the dynamic mechanism; shift+add pairs are common address arithmetic
for array indexing, about 5% of the dynamic stream in integer code.
"""

from __future__ import annotations

from typing import Optional

from repro.fillunit.opts.base import OptimizationPass, PassContext
from repro.isa.instruction import Instruction, ScaleAnnotation
from repro.isa.opcodes import Format, Op, SCALED_ADD_TARGETS
from repro.tracecache.segment import TraceSegment

#: Formats whose rs/rt operands are interchangeable for the address or
#: sum computation (commutative operand slots).
_SWAPPABLE = {Format.R3, Format.LOADX, Format.STOREX}
_SLL = Op.SLL


class ScaledAddPass(OptimizationPass):
    """Collapse shift+add dependence pairs into scaled adds."""

    name = "scaled_adds"
    surface = frozenset({"scale", "rs", "rt"})

    def apply(self, segment: TraceSegment, ctx: PassContext) -> dict:
        max_shift = ctx.config.max_scale_shift
        # reg -> (shift source, shift amount): reg currently holds
        # (source << amount) and neither register was redefined since.
        shift_prov: dict = {}
        created = 0
        for index, instr in enumerate(segment.instrs):
            if (shift_prov and instr.op in SCALED_ADD_TARGETS
                    and instr.scale is None and not instr.move_flag):
                annotated = self._try_annotate(segment, index,
                                               shift_prov)
                if annotated is not None:
                    instr = annotated
                    created += 1
            dest = instr.decoded.dest
            if dest is None:
                continue
            if shift_prov:
                for key in [k for k, v in shift_prov.items()
                            if v[0] == dest]:
                    shift_prov.pop(key)
                shift_prov.pop(dest, None)
            # A guarded shift only conditionally holds its result, so
            # it cannot seed provenance.
            if instr.op is _SLL and not instr.move_flag \
                    and instr.guard is None:
                if 1 <= (instr.imm or 0) <= max_shift \
                        and instr.rs != dest:
                    shift_prov[dest] = (instr.rs, instr.imm)
                elif (instr.imm or 0) > max_shift:
                    # Only 2 stored bits (plus the ALU path-length
                    # argument): wider shifts cannot be absorbed.
                    ctx.reject(self.name, "shift_too_large")
        return {"scaled_adds": created}

    @staticmethod
    def _try_annotate(segment: TraceSegment, index: int,
                      shift_prov: dict) -> Optional[Instruction]:
        """Annotate entry *index* if one of its address/sum operands is
        a live shift result; returns the annotated entry, or ``None``."""
        instr = segment.instrs[index]
        entry = shift_prov.get(instr.rs)
        swap: dict = {}
        if entry is None and instr.format in _SWAPPABLE:
            entry = shift_prov.get(instr.rt)
            # Move the shifted value into the scaled (rs) slot.
            swap = {"rs": instr.rt, "rt": instr.rs}
        if entry is None:
            return None
        return segment.rewrite(index, scale=ScaleAnnotation(
            src=entry[0], shamt=entry[1]), **swap)


__all__ = ["ScaledAddPass"]
