"""The paper's 7 pre-decode bits, bit-exact.

§4.1: "we record dependencies using an extra 7 bits per instruction.
3 bits are added to an instruction's destination to identify whether
the destination is live-out of its checkpoint [... and] situations
where the destination is overwritten within another checkpoint issued
that same cycle. We require 2 bits (1 bit per source operand) to
identify whether the sources are defined internally or are live-in to
the trace. [...] Finally, 2 bits are required to identify an
instruction's block number within a trace."

This module packs and unpacks that 7-bit field so the storage-cost
arithmetic in the paper (28KB of pre-decode bits for a 2K-line cache of
16 4-byte instructions) can be validated, and so the dependency
metadata has a concrete hardware-faithful representation:

======  ==========================================================
bits    meaning
======  ==========================================================
6..4    destination liveness: bit 6 = live-out of own checkpoint,
        bit 5 = overwritten by a later checkpoint in the same cycle
        group, bit 4 = has a destination at all
3       source 0 is trace-internal (register id names the producer)
2       source 1 is trace-internal
1..0    checkpoint block number within the trace (0-3)
======  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SegmentError
from repro.fillunit.dependency import mark_dependencies
from repro.tracecache.segment import TraceSegment

PREDECODE_BITS = 7


@dataclass(frozen=True)
class PreDecode:
    """One instruction's unpacked pre-decode field."""

    has_dest: bool
    dest_liveout: bool
    dest_overwritten_same_group: bool
    src0_internal: bool
    src1_internal: bool
    block: int

    def pack(self) -> int:
        """Pack into the 7-bit field.

        Raises:
            SegmentError: if the block number exceeds 2 bits.
        """
        if not 0 <= self.block <= 3:
            raise SegmentError(f"block number {self.block} needs >2 bits")
        return ((int(self.dest_liveout) << 6)
                | (int(self.dest_overwritten_same_group) << 5)
                | (int(self.has_dest) << 4)
                | (int(self.src0_internal) << 3)
                | (int(self.src1_internal) << 2)
                | self.block)

    @classmethod
    def unpack(cls, field: int) -> "PreDecode":
        """Unpack a 7-bit field.

        Raises:
            SegmentError: if *field* does not fit in 7 bits.
        """
        if not 0 <= field < (1 << PREDECODE_BITS):
            raise SegmentError(f"pre-decode field {field:#x} not 7 bits")
        return cls(
            has_dest=bool(field & (1 << 4)),
            dest_liveout=bool(field & (1 << 6)),
            dest_overwritten_same_group=bool(field & (1 << 5)),
            src0_internal=bool(field & (1 << 3)),
            src1_internal=bool(field & (1 << 2)),
            block=field & 0x3,
        )


def encode_segment(segment: TraceSegment) -> list:
    """Compute the packed pre-decode fields for every instruction of
    *segment* from its dependency marking
    (:func:`~repro.fillunit.dependency.mark_dependencies`, which reads
    the decoded records: a rewritten segment must be sealed first).

    Raises:
        SegmentError: if the segment has more than four checkpoint
            blocks (the 2-bit field's capacity — the fill unit's
            3-conditional-branch limit guarantees at most four).
    """
    deps = mark_dependencies(segment.instrs)
    fields = []
    for idx, instr in enumerate(segment.instrs):
        sources = [reg for reg in instr.sources() if reg != 0]
        internal = [deps.producer[idx].get(reg) is not None
                    for reg in sources[:2]]
        internal += [False] * (2 - len(internal))
        dest = instr.dest()
        fields.append(PreDecode(
            has_dest=dest is not None,
            dest_liveout=deps.liveout[idx],
            dest_overwritten_same_group=(dest is not None
                                         and not deps.liveout[idx]),
            src0_internal=internal[0],
            src1_internal=internal[1],
            block=min(instr.block_id, 3),
        ).pack())
    return fields


def storage_cost_bytes(num_lines: int = 2048,
                       instrs_per_line: int = 16) -> int:
    """Pre-decode storage for a whole trace cache, in bytes.

    The paper's arithmetic: 2K lines x 16 instructions x 7 bits = 28KB.
    """
    return num_lines * instrs_per_line * PREDECODE_BITS // 8


__all__ = ["PreDecode", "PREDECODE_BITS", "encode_segment",
           "storage_cost_bytes"]
