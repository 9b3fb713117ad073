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
ids are counted only when a candidate is assembled into a segment
(:meth:`~repro.fillunit.unit.FillUnit.assemble_segment`;
:meth:`PendingSegment.region_ids` is the reference definition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.branch.bias import BiasTable
from repro.machine.tracing import CommittedInstr


@dataclass
class PendingBranch:
    """A conditional branch recorded while collecting."""

    index: int
    pc: int
    direction: bool
    promoted: bool


class PendingSegment:
    """A finalized segment candidate (still in record form)."""

    __slots__ = ("records", "branches", "unpromoted", "start_pc",
                 "_path_key")

    def __init__(self, records: Optional[List[CommittedInstr]] = None,
                 branches: Optional[List[PendingBranch]] = None,
                 unpromoted: int = 0) -> None:
        self.records: List[CommittedInstr] = (
            records if records is not None else [])
        self.branches: List[PendingBranch] = (
            branches if branches is not None else [])
        #: how many of :attr:`branches` are not promoted
        self.unpromoted = unpromoted
        #: the first record's pc: set here for a candidate built from
        #: records, and by the collector when it finalizes one
        self.start_pc = self.records[0].pc if self.records else 0
        self._path_key: Optional[Tuple[int, ...]] = None

    @property
    def path_key(self) -> Tuple[int, ...]:
        """The pcs along the candidate's path, computed on first use
        (the candidate is finalized by then): the dedup probe and the
        build key share it."""
        key = self._path_key
        if key is None:
            key = self._path_key = tuple([record.pc
                                          for record in self.records])
        return key

    def region_ids(self) -> Tuple[List[int], List[int]]:
        """Per-record checkpoint-block and control-flow ids, counted
        from the first record: the block id advances after every
        conditional branch, the flow id after every transfer (the
        reference for the ids ``FillUnit.assemble_segment`` counts)."""
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


class _Retired:
    """A bare record in the shape the collection entry point reads:
    what a retired fetch entry offers (``phantom``, ``record``,
    ``retire_cycle``)."""

    __slots__ = ("record", "retire_cycle")
    phantom = False

    def __init__(self, record: CommittedInstr, cycle: int) -> None:
        self.record = record
        self.retire_cycle = cycle


class FillCollector:
    """Accumulates retired instructions into segment candidates.

    :attr:`collect` is the per-instruction entry point: it takes what
    the engine's per-instruction chain passes, ``(state, entry)``,
    skips a phantom entry and collects the entry's record, handing
    each candidate it finalizes to :meth:`sink` with the entry's
    retire cycle. The fill stage's ``process`` link *is* this entry
    point. :meth:`feed` and :meth:`add` adapt a bare record to it
    (tests, tools). A standalone collector's sink keeps the candidates
    for :meth:`add` to return; the fill unit, a collector itself,
    overrides it with its build path. The collection mode — packed or
    block-granular — is chosen once, at construction, and
    :attr:`collect` gives its implementation.

    No instance attribute refers back to the collector (``collect``
    and ``sink`` are resolved on the class), so a finished fill unit
    is freed by reference counting, without waiting for a collection
    of cyclic garbage."""

    def __init__(self, bias: BiasTable, max_instrs: int = 16,
                 max_cond_branches: int = 3,
                 trace_packing: bool = True) -> None:
        self.bias = bias
        self.max_instrs = max_instrs
        self.max_cond_branches = max_cond_branches
        self.trace_packing = trace_packing
        self._kept: List[PendingSegment] = []
        #: retired instructions collected so far
        self.collected = 0
        self._pending = PendingSegment()
        self._block = PendingSegment()     # used only when not packing
        # Fetch addresses that recently missed in the trace cache. The
        # fill unit aligns segment starts to these so the segments it
        # builds begin exactly where fetch will next look them up —
        # the standard miss-driven trace-construction policy. Bounded
        # FIFO so stale requests age out.
        self._miss_points: Dict[int, None] = {}
        self._miss_capacity = 64

    @property
    def collect(self) -> Callable[[Any, Any], None]:
        """``collect(state, entry)``: one retiring entry of the
        per-instruction chain, collected in this collector's mode
        unless it is a phantom (callers on a hot path keep it)."""
        if self.trace_packing:
            return self._collect_packed
        return self._collect_block_granular

    def feed(self, record: CommittedInstr, cycle: int) -> None:
        """Collect one retired instruction *record*, retired at
        *cycle*."""
        self.collect(None, _Retired(record, cycle))

    def sink(self, candidate: PendingSegment, cycle: int) -> None:
        """Take one finalized candidate: keep it for :meth:`add`."""
        self._kept.append(candidate)

    def note_fetch_miss(self, pc: int) -> None:
        """Record that fetch missed the trace cache at *pc*."""
        self._miss_points.pop(pc, None)
        self._miss_points[pc] = None
        if len(self._miss_points) > self._miss_capacity:
            self._miss_points.pop(next(iter(self._miss_points)))

    # ------------------------------------------------------------------

    def add(self, record: CommittedInstr) -> List[PendingSegment]:
        """Feed one retired instruction; returns the (possibly empty)
        list of segment candidates finalized by it (empty for the
        fill unit, whose sink builds them instead).

        Block-granular collection can finalize two candidates on one
        instruction (the pending segment is cut because the completed
        block does not fit, and the block itself then ends with a
        terminator), hence a list rather than an optional."""
        self.feed(record, 0)
        kept, self._kept = self._kept, []
        return kept

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

    def _collect_packed(self, state: Any, entry: Any) -> None:
        if entry.phantom:
            return
        record = entry.record
        self.collected += 1
        pending = self._pending
        if pending.records and record.pc in self._miss_points:
            # Align a fresh segment to an outstanding fetch-miss point.
            del self._miss_points[record.pc]
            self.sink(self._finalize(), entry.retire_cycle)
            pending = self._pending
        decoded = record.instr.decoded
        if decoded.is_cond_branch:
            promoted = self.bias.is_promoted(record.pc)
            if not promoted:
                if pending.unpromoted >= self.max_cond_branches:
                    self.sink(self._finalize(), entry.retire_cycle)
                    pending = self._pending
                pending.unpromoted += 1
            pending.branches.append(PendingBranch(
                len(pending.records), record.pc, record.taken, promoted))
        records = pending.records
        records.append(record)
        if (decoded.terminates_segment
                or len(records) >= self.max_instrs):
            self.sink(self._finalize(), entry.retire_cycle)

    # -- block-granular mode ----------------------------------------------

    def _collect_block_granular(self, state: Any, entry: Any) -> None:
        if entry.phantom:
            return
        record = entry.record
        self.collected += 1
        decoded = record.instr.decoded
        block = self._block
        if decoded.is_cond_branch:
            self._add_branch(block, record,
                             self.bias.is_promoted(record.pc))
        block.records.append(record)
        if not (decoded.is_ctrl or decoded.terminates_segment
                or len(block) >= self.max_instrs):
            return
        if not self._block_fits() and len(self._pending):
            self.sink(self._finalize(), entry.retire_cycle)
        self._append_block_to_pending()
        last = self._pending.records[-1].instr.decoded
        if last.terminates_segment or len(self._pending) >= self.max_instrs:
            self.sink(self._finalize(), entry.retire_cycle)

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
        candidate.start_pc = candidate.records[0].pc
        self._pending = PendingSegment()
        return candidate


__all__ = ["FillCollector", "PendingSegment", "PendingBranch"]
