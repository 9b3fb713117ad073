"""Block collection: turning the retire stream into segment candidates.

The collector consumes committed instructions in retirement order and
cuts them into trace-segment candidates under the paper's rules:

* at most 16 instructions per segment;
* at most three *unpromoted* conditional branches (promoted branches
  carry embedded static predictions and do not consume a slot);
* returns, indirect jumps and serializing instructions terminate the
  segment; subroutine calls and direct jumps do not;
* with **trace packing** (the baseline), instructions fill the segment
  without regard to block boundaries; without it, only whole blocks are
  appended.

Most candidates are dropped as duplicates of a resident line, so a
candidate carries only what the dedup probe reads: its records, its
branches and a running count of unpromoted branches. Block and flow
ids are derived (:meth:`PendingSegment.region_ids`) only when a
candidate is assembled into a segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.branch.bias import BiasTable
from repro.machine.tracing import CommittedInstr


@dataclass
class PendingBranch:
    """A conditional branch recorded while collecting."""

    index: int
    pc: int
    direction: bool
    promoted: bool


@dataclass
class PendingSegment:
    """A finalized segment candidate (still in record form)."""

    records: List[CommittedInstr] = field(default_factory=list)
    branches: List[PendingBranch] = field(default_factory=list)
    #: how many of :attr:`branches` are not promoted
    unpromoted: int = 0

    @property
    def start_pc(self) -> int:
        return self.records[0].pc

    @property
    def path_key(self) -> Tuple[int, ...]:
        return tuple(record.pc for record in self.records)

    def region_ids(self) -> Tuple[List[int], List[int]]:
        """Per-record checkpoint-block and control-flow ids, counted
        from the first record: the block id advances after every
        conditional branch, the flow id after every transfer."""
        block_ids: List[int] = []
        flow_ids: List[int] = []
        block = flow = 0
        for record in self.records:
            block_ids.append(block)
            flow_ids.append(flow)
            decoded = record.instr.decoded
            if decoded.is_ctrl:
                flow += 1
                if decoded.is_cond_branch:
                    block += 1
        return block_ids, flow_ids

    def __len__(self) -> int:
        return len(self.records)


class FillCollector:
    """Accumulates retired instructions into segment candidates."""

    def __init__(self, bias: BiasTable, max_instrs: int = 16,
                 max_cond_branches: int = 3,
                 trace_packing: bool = True) -> None:
        self.bias = bias
        self.max_instrs = max_instrs
        self.max_cond_branches = max_cond_branches
        self.trace_packing = trace_packing
        self._pending = PendingSegment()
        self._block = PendingSegment()     # used only when not packing
        # Fetch addresses that recently missed in the trace cache. The
        # fill unit aligns segment starts to these so the segments it
        # builds begin exactly where fetch will next look them up —
        # the standard miss-driven trace-construction policy. Bounded
        # FIFO so stale requests age out.
        self._miss_points: Dict[int, None] = {}
        self._miss_capacity = 64

    def note_fetch_miss(self, pc: int) -> None:
        """Record that fetch missed the trace cache at *pc*."""
        self._miss_points.pop(pc, None)
        self._miss_points[pc] = None
        if len(self._miss_points) > self._miss_capacity:
            self._miss_points.pop(next(iter(self._miss_points)))

    # ------------------------------------------------------------------

    def add(self, record: CommittedInstr) -> List[PendingSegment]:
        """Feed one retired instruction; returns the (possibly empty)
        list of segment candidates finalized by it.

        Block-granular collection can finalize two candidates on one
        instruction (the pending segment is cut because the completed
        block does not fit, and the block itself then ends with a
        terminator), hence a list rather than an optional."""
        if self.trace_packing:
            return self._add_packed(record)
        return self._add_block_granular(record)

    def flush(self) -> List[PendingSegment]:
        """Finalize whatever is pending (end of simulation); returns
        zero, one or two candidates (block-granular collection may hold
        a partial block that does not fit the pending segment)."""
        out: List[PendingSegment] = []
        if not self.trace_packing and len(self._block):
            if not self._block_fits() and len(self._pending):
                out.append(self._finalize())
            self._append_block_to_pending()
        if len(self._pending):
            out.append(self._finalize())
        return out

    # -- packed mode -----------------------------------------------------

    def _add_packed(self, record: CommittedInstr) -> List[PendingSegment]:
        decoded = record.instr.decoded
        out: List[PendingSegment] = []
        if self._pending.records and record.pc in self._miss_points:
            # Align a fresh segment to an outstanding fetch-miss point.
            del self._miss_points[record.pc]
            out.append(self._finalize())
        if decoded.is_cond_branch:
            promoted = self.bias.is_promoted(record.pc)
            if (not promoted and self._pending.unpromoted
                    >= self.max_cond_branches):
                out.append(self._finalize())
            self._add_branch(self._pending, record, promoted)
        records = self._pending.records
        records.append(record)
        if (decoded.terminates_segment
                or len(records) >= self.max_instrs):
            out.append(self._finalize())
        return out

    # -- block-granular mode ----------------------------------------------

    def _add_block_granular(
            self, record: CommittedInstr) -> List[PendingSegment]:
        decoded = record.instr.decoded
        block = self._block
        if decoded.is_cond_branch:
            self._add_branch(block, record,
                             self.bias.is_promoted(record.pc))
        block.records.append(record)
        block_done = (decoded.is_ctrl or decoded.terminates_segment
                      or len(block) >= self.max_instrs)
        if not block_done:
            return []
        out: List[PendingSegment] = []
        if not self._block_fits() and len(self._pending):
            out.append(self._finalize())
        self._append_block_to_pending()
        last = self._pending.records[-1].instr.decoded
        if last.terminates_segment or len(self._pending) >= self.max_instrs:
            out.append(self._finalize())
        return out

    # ------------------------------------------------------------------

    @staticmethod
    def _add_branch(target: PendingSegment, record: CommittedInstr,
                    promoted: bool) -> None:
        """Record the conditional branch *record* is about to append
        to *target*."""
        target.branches.append(PendingBranch(
            len(target.records), record.pc, record.taken, promoted))
        if not promoted:
            target.unpromoted += 1

    def _block_fits(self) -> bool:
        """Whether the collected block fits the pending segment."""
        pending, block = self._pending, self._block
        return (len(pending) + len(block) <= self.max_instrs
                and pending.unpromoted + block.unpromoted
                <= self.max_cond_branches)

    def _append_block_to_pending(self) -> None:
        pending = self._pending
        base = len(pending.records)
        pending.records.extend(self._block.records)
        for branch in self._block.branches:
            pending.branches.append(PendingBranch(
                branch.index + base, branch.pc, branch.direction,
                branch.promoted))
        pending.unpromoted += self._block.unpromoted
        self._block = PendingSegment()

    def _finalize(self) -> PendingSegment:
        candidate = self._pending
        self._pending = PendingSegment()
        return candidate


__all__ = ["FillCollector", "PendingSegment", "PendingBranch"]
