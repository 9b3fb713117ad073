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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.branch.bias import BiasTable


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

    records: list = field(default_factory=list)
    branches: list = field(default_factory=list)
    block_ids: list = field(default_factory=list)
    flow_ids: list = field(default_factory=list)
    block_count: int = 1

    @property
    def start_pc(self) -> int:
        return self.records[0].pc

    @property
    def path_key(self) -> tuple:
        return tuple(record.pc for record in self.records)

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
        self._block_id = 0
        self._flow_id = 0
        # Fetch addresses that recently missed in the trace cache. The
        # fill unit aligns segment starts to these so the segments it
        # builds begin exactly where fetch will next look them up —
        # the standard miss-driven trace-construction policy. Bounded
        # FIFO so stale requests age out.
        self._miss_points: dict = {}
        self._miss_capacity = 64

    def note_fetch_miss(self, pc: int) -> None:
        """Record that fetch missed the trace cache at *pc*."""
        self._miss_points.pop(pc, None)
        self._miss_points[pc] = None
        if len(self._miss_points) > self._miss_capacity:
            self._miss_points.pop(next(iter(self._miss_points)))

    # ------------------------------------------------------------------

    def add(self, record) -> list:
        """Feed one retired instruction; returns the (possibly empty)
        list of segment candidates finalized by it.

        Block-granular collection can finalize two candidates on one
        instruction (the pending segment is cut because the completed
        block does not fit, and the block itself then ends with a
        terminator), hence a list rather than an optional."""
        if self.trace_packing:
            return self._add_packed(record)
        return self._add_block_granular(record)

    def flush(self) -> list:
        """Finalize whatever is pending (end of simulation); returns
        zero, one or two candidates (block-granular collection may hold
        a partial block that does not fit the pending segment)."""
        out = []
        if not self.trace_packing and len(self._block):
            fits = (len(self._pending) + len(self._block)
                    <= self.max_instrs
                    and (self._pending_unpromoted()
                         + self._block_unpromoted())
                    <= self.max_cond_branches)
            if not fits and len(self._pending):
                out.append(self._finalize())
            self._append_block_to_pending()
        if len(self._pending):
            out.append(self._finalize())
        self._reset()
        return out

    # -- packed mode -----------------------------------------------------

    def _add_packed(self, record) -> list:
        decoded = record.instr.decoded
        out = []
        if self._pending.records and record.pc in self._miss_points:
            # Align a fresh segment to an outstanding fetch-miss point.
            del self._miss_points[record.pc]
            out.append(self._finalize())
        promoted = False
        if decoded.is_cond_branch:
            promoted = self.bias.is_promoted(record.pc)
            if (not promoted
                    and self._pending_unpromoted() >= self.max_cond_branches):
                out.append(self._finalize())
        self._append(self._pending, record, promoted)
        if (decoded.terminates_segment
                or len(self._pending.records) >= self.max_instrs):
            out.append(self._finalize())
        return out

    # -- block-granular mode ----------------------------------------------

    def _add_block_granular(self, record) -> list:
        decoded = record.instr.decoded
        promoted = (decoded.is_cond_branch
                    and self.bias.is_promoted(record.pc))
        self._append(self._block, record, promoted)
        block_done = (decoded.is_ctrl or decoded.terminates_segment
                      or len(self._block) >= self.max_instrs)
        if not block_done:
            return []
        out = []
        fits = (len(self._pending) + len(self._block) <= self.max_instrs
                and (self._pending_unpromoted()
                     + self._block_unpromoted()) <= self.max_cond_branches)
        if not fits and len(self._pending):
            out.append(self._finalize())
        self._append_block_to_pending()
        last = self._pending.records[-1].instr.decoded
        if last.terminates_segment or len(self._pending) >= self.max_instrs:
            out.append(self._finalize())
        return out

    # ------------------------------------------------------------------

    def _append(self, target: PendingSegment, record,
                promoted: bool) -> None:
        decoded = record.instr.decoded
        index = len(target.records)
        target.records.append(record)
        target.block_ids.append(self._block_id)
        target.flow_ids.append(self._flow_id)
        if decoded.is_cond_branch:
            target.branches.append(
                PendingBranch(index, record.pc, record.taken, promoted))
            self._block_id += 1
            self._flow_id += 1
        elif decoded.is_ctrl:
            self._flow_id += 1

    def _append_block_to_pending(self) -> None:
        base = len(self._pending.records)
        self._pending.records.extend(self._block.records)
        self._pending.block_ids.extend(self._block.block_ids)
        self._pending.flow_ids.extend(self._block.flow_ids)
        for branch in self._block.branches:
            self._pending.branches.append(PendingBranch(
                branch.index + base, branch.pc, branch.direction,
                branch.promoted))
        self._block = PendingSegment()

    def _pending_unpromoted(self) -> int:
        return sum(1 for b in self._pending.branches if not b.promoted)

    def _block_unpromoted(self) -> int:
        return sum(1 for b in self._block.branches if not b.promoted)

    def _finalize(self) -> PendingSegment:
        candidate = self._pending
        base_block = candidate.block_ids[0]
        base_flow = candidate.flow_ids[0]
        candidate.block_ids = [b - base_block for b in candidate.block_ids]
        candidate.flow_ids = [f - base_flow for f in candidate.flow_ids]
        candidate.block_count = candidate.block_ids[-1] + 1
        self._pending = PendingSegment()
        return candidate

    def _reset(self) -> None:
        self._pending = PendingSegment()
        self._block = PendingSegment()
        self._block_id = 0
        self._flow_id = 0


__all__ = ["FillCollector", "PendingSegment", "PendingBranch"]
