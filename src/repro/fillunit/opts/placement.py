"""Instruction placement (paper §4.5).

With a clustered backend, forwarding a result to another cluster costs
an extra cycle. Because trace segments carry their dependencies
explicitly, instruction order within the line no longer conveys
dataflow — so the fill unit is free to choose which *issue slot* (and
therefore which cluster) each instruction occupies.

The paper's heuristic, verbatim: "For each issue slot the fill unit
looks for an instruction that is dependent upon an instruction already
placed in that cluster. If no dependent instruction is found, the first
unplaced instruction is put in that issue slot."

We implement the steering-field variant (each instruction gains a 4-bit
issue-slot field; logical order is retained for the memory scheduler),
so the transformation never perturbs architectural order — only the
cluster each instruction executes in.
"""

from __future__ import annotations

from repro.fillunit.opts.base import OptimizationPass, PassContext
from repro.tracecache.segment import TraceSegment


class PlacementPass(OptimizationPass):
    """Assign issue slots to minimize cross-cluster operand bypass."""

    name = "placement"
    surface = frozenset({"slots"})

    def apply(self, segment: TraceSegment, ctx: PassContext) -> dict:
        deps = segment.deps
        if deps is None:  # defensive: the manager marks before placement
            from repro.fillunit.dependency import mark_dependencies
            segment.redecode()
            segment.deps = deps = mark_dependencies(segment.instrs)
        count = len(segment.instrs)
        producers = [deps.internal_producers(index)
                     for index in range(count)]
        cluster_size = ctx.cluster_size
        num_clusters = ctx.num_clusters
        slots = [0] * count
        # per cluster: the logical indices placed in it so far
        placed_in: list = [set() for _ in range(num_clusters)]
        unplaced = list(range(count))
        moved = 0
        for slot in range(count):
            members = placed_in[(slot // cluster_size) % num_clusters]
            pick = unplaced[0]
            if members:
                for candidate in unplaced:
                    if not producers[candidate].isdisjoint(members):
                        pick = candidate
                        break
            unplaced.remove(pick)
            slots[pick] = slot
            members.add(pick)
            if pick != slot:
                moved += 1
        segment.slots = slots
        return {"placed_instructions": count, "placement_moved": moved}


__all__ = ["PlacementPass"]
