"""Dead-code elimination (paper §5, future work).

"Dead code elimination, for example, could be used if the proper
recovery mechanisms were in place to handle the cases in which the
correct path of execution only follows a portion of the trace cache
line."

The paper's concern is early exits: removing an instruction whose
result is only dead *if the whole segment executes* breaks the
partially-executed case. We therefore implement the conservative,
always-safe subset — an instruction is removed only when its result is
dead at EVERY suffix of the segment:

* its destination is redefined later in the segment,
* no instruction between the two definitions (nor the redefinition
  itself) reads the destination, and
* **every conditional-branch exit between them leaves the segment**
  is handled by requiring the pair to sit in the same checkpoint block
  (no branch in between) — a branch between them could leave the
  segment with the value still architecturally live.

Removed instructions become NOPs occupying their slot (the trace cache
line keeps its geometry; the scheduler simply never dispatches them) —
modelled here by dropping them from issue via the ``dead`` flag.
"""

from __future__ import annotations

from repro.fillunit.opts.base import OptimizationPass, PassContext
from repro.tracecache.segment import TraceSegment


class DeadCodePass(OptimizationPass):
    """Squash provably dead computations inside one segment."""

    name = "dead_code"
    surface = frozenset({"squash"})

    def apply(self, segment: TraceSegment, ctx: PassContext) -> dict:
        instrs = segment.instrs
        removed = 0
        for idx, instr in enumerate(instrs):
            dest = instr.dest()
            if dest is None or instr.is_mem() or instr.is_ctrl() \
                    or instr.is_serializing():
                continue
            if not self._dead_within_block(instrs, idx, dest):
                continue
            segment.squash(idx)
            removed += 1
        return {"dead_code_removed": removed}

    @staticmethod
    def _dead_within_block(instrs: list, idx: int, dest: int) -> bool:
        """True when *dest* is overwritten later in the same checkpoint
        block with no intervening reader."""
        block = instrs[idx].block_id
        for later in instrs[idx + 1:]:
            if later.block_id != block:
                return False             # a branch exit may observe dest
            if dest in later.sources():
                return False
            if later.dest() == dest:
                return True              # overwritten before any use
        return False                     # live-out of the segment


__all__ = ["DeadCodePass"]
