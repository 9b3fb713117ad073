"""Common-subexpression elimination (paper §5, future work).

"The implementation of more aggressive optimizations, such as common
subexpression elimination, may yield further improvements."

Within one trace segment, a computation whose opcode and source values
provably match an earlier one is replaced by a register *move* from the
earlier result — which the register-move machinery (paper §4.2) then
executes for free in rename. CSE therefore composes with, and is run
before, the move pass.

Safety: a pair matches only when (a) the opcodes and immediates are
identical, (b) every source register still holds the same value it had
at the earlier instruction (no intervening redefinition), and (c) the
earlier result register still holds that result. Loads are never
eliminated (an intervening store may alias), nor are multi-output or
control instructions. These conditions make the rewrite architecturally
invisible even if the segment is only partially executed — the move
still computes the same value the original computation would have —
so no recovery safeguards are needed for this conservative subset.
"""

from __future__ import annotations

from repro.fillunit.opts.base import OptimizationPass, PassContext
from repro.isa.opcodes import Op
from repro.tracecache.segment import TraceSegment

#: Pure register computations eligible for elimination.
_CSE_OPS = frozenset({
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.NOR, Op.SLT, Op.SLTU,
    Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI, Op.SLTIU,
    Op.SLL, Op.SRL, Op.SRA, Op.SLLV, Op.SRLV, Op.SRAV, Op.LUI,
    Op.MULT,
})


class CommonSubexpressionPass(OptimizationPass):
    """Replace repeated computations with moves from the first result."""

    name = "cse"
    surface = frozenset({"op", "rs", "rt", "imm", "reassociated"})

    def apply(self, segment: TraceSegment, ctx: PassContext) -> dict:
        # Value numbering: each register maps to a version; an
        # expression key is (op, imm, src versions).
        version: dict = {}
        next_version = [0]

        def reg_version(reg: int) -> int:
            if reg == 0:
                return -1          # the constant zero, version-stable
            if reg not in version:
                next_version[0] += 1
                version[reg] = next_version[0]
            return version[reg]

        available: dict = {}       # expression key -> producing register
        eliminated = 0
        for index, instr in enumerate(segment.instrs):
            dest = instr.decoded.dest
            key = None
            # Guarded (predicated) instructions write conditionally:
            # their result is not a reusable expression value, and
            # rewriting one into a move would make the copy
            # unconditional. Skip them entirely; the dest-version bump
            # below still conservatively kills prior availability.
            if (instr.op in _CSE_OPS and dest is not None
                    and not instr.move_flag and instr.scale is None
                    and instr.guard is None):
                sources = tuple(sorted(
                    (reg, reg_version(reg)) for reg in instr.sources())) \
                    if instr.op in (Op.ADD, Op.AND, Op.OR, Op.XOR,
                                    Op.MULT) \
                    else tuple((reg, reg_version(reg))
                               for reg in instr.sources())
                key = (instr.op, instr.imm, sources)
                prior = available.get(key)
                if prior is not None and prior != dest:
                    # Rewrite into the canonical move idiom; the move
                    # pass (run next) marks and bypasses it.
                    segment.rewrite(index, op=Op.ADDI, rs=prior, rt=None,
                                    imm=0, reassociated=False)
                    eliminated += 1
                    key = None     # the move produces no new expression
            if dest is not None:
                # dest changes version; expressions producing into dest
                # or consuming the old dest version die naturally via
                # version comparison, but the availability table must
                # drop entries whose *result* lived in dest.
                for expr in [k for k, reg in available.items()
                             if reg == dest]:
                    del available[expr]
                next_version[0] += 1
                version[dest] = next_version[0]
                if key is not None:
                    available[key] = dest
        return {"cse_eliminated": eliminated}


__all__ = ["CommonSubexpressionPass"]
