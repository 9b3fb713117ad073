"""Explicit dependency marking.

The paper's fill unit records 7 extra bits per instruction so the trace
cache line carries its dataflow explicitly: 3 bits of destination
live-out information, 2 bits flagging whether each source is trace-
internal (in which case the register identifier names the producing
instruction), and 2 bits of block number. This module computes the
model equivalent: per-instruction producer maps, live-in flags and
live-out flags for a segment.

The marking is annotation-aware: it runs after the rewriting passes, so
a marked move contributes only its move source and a scaled add reads
the shift's source register. It reads each instruction's decoded
record, so a segment's rewritten entries must be re-decoded first
(:meth:`~repro.tracecache.segment.TraceSegment.redecode`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.isa.instruction import Instruction


@dataclass
class DependencyInfo:
    """Dataflow facts for one trace segment (logical order)."""

    #: per instruction: source register -> producing instruction index,
    #: or ``None`` when the value is live-in to the segment.
    producer: List[Dict[int, Optional[int]]] = field(default_factory=list)
    #: per instruction: destination is live-out of the segment.
    liveout: List[bool] = field(default_factory=list)
    #: per instruction: number of live-in source operands.
    livein_counts: List[int] = field(default_factory=list)

    def internal_producers(self, index: int) -> Set[int]:
        """Indices of segment-internal producers feeding instruction
        *index*."""
        return {p for p in self.producer[index].values() if p is not None}

    def consumers_of(self, index: int) -> List[int]:
        """Indices of instructions consuming instruction *index*'s value."""
        return [i for i in range(len(self.producer))
                if index in self.producer[i].values()]


def mark_dependencies(instrs: Sequence[Instruction]) -> DependencyInfo:
    """Compute :class:`DependencyInfo` for *instrs* in logical order.

    Register zero never creates a dependence (it is a hardwired
    constant, always "ready"); the decoded sources already omit it.
    """
    info = DependencyInfo()
    last_def: Dict[int, int] = {}
    for idx, instr in enumerate(instrs):
        decoded = instr.decoded
        producers: Dict[int, Optional[int]] = {}
        livein = 0
        for reg in decoded.sources:
            producer = last_def.get(reg)
            producers[reg] = producer
            if producer is None:
                livein += 1
        info.producer.append(producers)
        info.livein_counts.append(livein)
        dest = decoded.dest
        if dest is not None:
            last_def[dest] = idx
    # Live-out: the last writer of each register whose value survives
    # the segment. Earlier writers of the same register are dead at
    # segment exit unless an internal consumer reads them (they are
    # still *distributed*; live-out here is segment-boundary liveness).
    final_writer = set(last_def.values())
    info.liveout = [idx in final_writer for idx in range(len(instrs))]
    return info


__all__ = ["DependencyInfo", "mark_dependencies"]
