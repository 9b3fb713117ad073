"""Fetch stage: trace-cache-first group assembly.

Probes the trace cache (path-associative, predictor-arbitrated) and
falls back to block-granular fetch from the supporting instruction
cache. Owns the front-end sequencing: the requested fetch cycle, the
I-cache miss delay, and — in :meth:`FetchStage.end_group` — the next
group's earliest fetch cycle after this group's mispredict redirects
and serialization drains.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SimConfig
from repro.core.results import SimResult, histogram
from repro.core.stages.base import (
    FetchEntry,
    FetchGroup,
    MachineState,
    PipelineStage,
)
from repro.telemetry.events import FETCH_MISFETCH
from repro.tracecache.segment import PREDICTED, PROMOTED

class FetchStage(PipelineStage):
    """Assembles fetch groups; owns predictor fetch-time training."""

    name = "fetch"

    def __init__(self, config: SimConfig, hierarchy: Any,
                 predictor: Any, fill_unit: Optional[Any],
                 events: Any) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = predictor
        #: the fill unit's trace cache (none without a fill unit)
        self.trace_cache = (fill_unit.trace_cache
                            if fill_unit is not None else None)
        self.fill_unit = fill_unit
        self.events = events
        self._ic_line_mask = ~(config.hierarchy.l1i_line - 1)
        #: committed instructions fetched from the trace cache (the
        #: I-cache fetched the rest)
        self.tc_instrs = 0
        #: of the trace-cache ones, those a pass optimized, in all and
        #: by moves, reassociation and scaled adds
        self.cov_any = 0
        self.cov_moves = 0
        self.cov_reassoc = 0
        self.cov_scaled = 0
        #: fetch groups by size: ``{entries: groups}``
        self.group_sizes: Dict[int, int] = {}
        #: the committed stream's pcs, which a line's path must match
        self._pcs: Tuple[int, ...] = ()

    # ==================================================================
    # Group assembly
    # ==================================================================

    def begin_run(self, state: MachineState) -> None:
        self._pcs = tuple([record.pc for record in state.records])

    def begin_group(self, state: MachineState) -> None:
        """Assemble the fetch group at the stream cursor: from a
        resident trace-cache line that starts at its pc, else from the
        I-cache. Phantom entries consume no stream record."""
        records = state.records
        start = state.index
        requested = state.fetch_ready
        pc = self._pcs[start]
        segment: Optional[Any] = None
        if self.trace_cache is not None:
            segment = self.trace_cache.lookup(pc, requested,
                                              self._path_chooser)
            if segment is None:
                assert self.fill_unit is not None
                self.fill_unit.note_fetch_miss(pc)
                self.events.emit(FETCH_MISFETCH, requested, pc=pc)
        if segment is not None:
            # The supporting I-cache is probed in parallel with the
            # trace cache (figure 1's datapath); keep its line resident
            # so the rare TC misses do not pay a full memory round trip
            # for code that streams through the TC every cycle.
            self.hierarchy.l1i.fill(pc)
            entries, consumed = self._fetch_from_segment(segment, records,
                                                         start)
            fetch_cycle = requested
            self.tc_instrs += consumed
        else:
            entries, fetch_cycle = self._fetch_from_icache(records, start,
                                                           requested)
            consumed = len(entries)
        # Never empty, so the engine needs no guard: a line found here
        # starts at the cursor's pc, so it matches the cursor's record
        # first, and the I-cache path always takes that record.
        assert entries
        group = FetchGroup(entries, fetch_cycle, segment)
        state.group = group
        group.fetch_extra = fetch_cycle - requested
        group.recovery = state.pending_recovery
        group.serialize = state.pending_serialize
        if (group.fetch_extra or group.recovery or group.serialize) \
                and consumed:
            # the attribution's debts, due at the group's first
            # committed record (see MachineState.fetch_log)
            state.fetch_log.append((start, group.recovery,
                                    group.fetch_extra, group.serialize))
        group.next_fetch = fetch_cycle + 1
        group.consumed = consumed
        sizes = self.group_sizes
        size = len(entries)
        sizes[size] = sizes.get(size, 0) + 1

    def end_group(self, state: MachineState) -> None:
        """Sequence the next group: serialization drains and the
        redirect pushback accumulated by the retire stage."""
        group = state.group
        assert group is not None
        serialize_bump = 0
        if group.serialize_after is not None \
                and group.serialize_after + 1 > group.next_fetch:
            serialize_bump = group.serialize_after + 1 - group.next_fetch
            group.next_fetch = group.serialize_after + 1
        state.pending_recovery = group.recovery_bump
        state.pending_serialize = serialize_bump
        state.fetch_ready = group.next_fetch

    # ------------------------------------------------------------------

    def _path_chooser(self, segment: Any) -> int:
        """Way-selection score for path-associative lookup.

        0: the predictor disagrees with the segment's path; 1: agrees
        (promoted branches agree by construction); 2: agrees AND the
        segment is predicated — a predicated segment matches the actual
        path on *either* outcome of its converted branch, so it is
        strictly more useful than a single-path twin.
        """
        agree = 1
        for info in segment.branches:
            if not info.promoted:
                agree = int(self.predictor.predict_cond(info.pc, 0)
                            == info.direction)
                break
        if agree and segment.predicated:
            return 2
        return agree

    def _fetch_from_segment(self, segment: Any, records: List[Any],
                            start: int) -> Tuple[List[FetchEntry], int]:
        """Consume the leading portion of *segment* that matches the
        actual path; all of it issues this cycle (inactive issue).
        Returns ``(entries, consumed)``, and counts the optimization
        coverage of the consumed entries.

        Everything that depends only on the line comes from the line:
        its path (``path_key``) is matched against the committed pcs,
        and of the fetch plan :meth:`TraceSegment.seal` recorded only
        the control entries are walked, for the predictor and the
        return-address stack.
        """
        if segment.predicated:
            entries, consumed = self._walk_predicated(segment, records,
                                                      start)
        else:
            pcs = segment.path_key
            actual = self._pcs[start:start + len(pcs)]
            if actual == pcs:
                consumed = len(pcs)
            else:
                consumed = 0
                for pc, committed in zip(pcs, actual):
                    if pc != committed:
                        break   # the line's path leaves the actual path
                    consumed += 1
            instrs = segment.instrs
            slots = segment.slots
            entries = [FetchEntry(record, instrs[index], slots[index])
                       for index, record in enumerate(
                           records[start:start + consumed])]
        # entries[i] is logical entry i: a predicated line issues each
        # entry it reaches, as a phantom when off the actual path
        reached = len(entries)
        position = 0        # unpromoted-branch predictor slot
        for index, kind, direction in segment.controls:
            if index >= reached:
                break
            entry = entries[index]
            if entry.phantom:
                continue
            record = entry.record
            if kind == PREDICTED:
                entry.mispredicted = self.predictor.update_cond(
                    record.pc, position, record.taken) != record.taken
                position += 1
            elif kind == PROMOTED:
                entry.promoted = True
                entry.mispredicted = direction != record.taken
            else:
                self._handle_unconditional(entry, entry.decoded)
        optimized, moves, reassoc, scaled = segment.coverage[reached]
        if reached != consumed:
            for entry in entries:
                if entry.phantom and entry.decoded.optimized:
                    decoded = entry.decoded
                    optimized -= 1
                    moves -= decoded.move
                    reassoc -= decoded.reassociated
                    scaled -= decoded.scaled
        if optimized:
            self.cov_any += optimized
            self.cov_moves += moves
            self.cov_reassoc += reassoc
            self.cov_scaled += scaled
        return entries, consumed

    def _walk_predicated(self, segment: Any, records: List[Any],
                         start: int) -> Tuple[List[FetchEntry], int]:
        """Match a predicated line entry by entry: a guarded entry off
        the actual path still issues, as a phantom, but consumes no
        committed record. Returns ``(entries, consumed)``."""
        pcs = segment.path_key
        slots = segment.slots
        committed = self._pcs
        n = len(committed)
        entries: List[FetchEntry] = []
        consumed = 0
        for index, instr in enumerate(segment.instrs):
            stream = start + consumed
            if stream >= n:
                break
            if pcs[index] != committed[stream]:
                if instr.guard is None:
                    break   # the line's path leaves the actual path
                entries.append(FetchEntry(None, instr, slots[index],
                                          phantom=True))
                continue
            entries.append(FetchEntry(records[stream], instr, slots[index]))
            consumed += 1
        return entries, consumed

    def _fetch_from_icache(self, records: List[Any], start: int,
                           cycle: int) -> Tuple[List[FetchEntry], int]:
        """Block-granular fetch from the supporting instruction cache."""
        pc = records[start].pc
        extra = self.hierarchy.fetch_instr(pc)
        fetch_cycle = cycle + extra
        entries: List[FetchEntry] = []
        line_mask = self._ic_line_mask
        line = pc & line_mask
        predictor = self.predictor
        width = self.config.ic_fetch_width
        cond_count = 0
        n = len(records)
        prev = None
        while len(entries) < width and start + len(entries) < n:
            record = records[start + len(entries)]
            if prev is not None:
                if record.pc != prev.pc + 4:
                    break   # previous instruction transferred control
                if record.pc & line_mask != line:
                    break   # crossed the cache line
            decoded = record.instr.decoded
            if decoded.is_cond_branch and cond_count >= \
                    predictor.max_dynamic_branches:
                break
            entry = FetchEntry(record, record.instr, len(entries))
            entries.append(entry)
            prev = record
            if decoded.is_cond_branch:
                entry.mispredicted = predictor.update_cond(
                    record.pc, cond_count, record.taken) != record.taken
                cond_count += 1
                if entry.mispredicted:
                    break
                if record.taken:
                    break   # fetch ends at a taken branch
            else:
                if decoded.is_call or decoded.is_indirect \
                        or decoded.is_return:
                    self._handle_unconditional(entry, decoded)
                if record.next_pc != record.pc + 4:
                    break   # taken jump/call/return ends the group
            if decoded.is_serializing:
                break
        return entries, fetch_cycle

    def _handle_unconditional(self, entry: FetchEntry,
                              decoded: Any) -> None:
        """RAS/BTB maintenance and indirect-target checking for a call,
        indirect jump or return."""
        record = entry.record
        if decoded.is_call:
            self.predictor.note_call(record.pc + 4)
        if decoded.is_indirect or decoded.is_return:
            predicted = self.predictor.predict_indirect(
                record.pc, decoded.is_return)
            if predicted != record.next_pc:
                entry.mispredicted = True
            self.predictor.train_indirect(record.pc, record.next_pc)

    # ==================================================================
    # Statistics
    # ==================================================================

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        pred = self.predictor.stats
        telemetry = result.telemetry
        telemetry.update({
            "fetch.tc.instrs": self.tc_instrs,
            "fetch.tc.opt.any": self.cov_any,
            "fetch.tc.opt.moves": self.cov_moves,
            "fetch.tc.opt.reassoc": self.cov_reassoc,
            "fetch.tc.opt.scaled": self.cov_scaled,
            "fetch.group.size": histogram(self.group_sizes),
            "mem.l1i.misses": self.hierarchy.l1i.stats.misses,
            "branch.pht.predictions": pred.cond_predictions,
            "branch.pht.mispredicts": pred.cond_mispredicts,
            "branch.indirect.predictions": pred.indirect_predictions,
        })
        # The trace cache's own statistics (fresh per engine), so one
        # dict holds the whole machine.
        if self.trace_cache is not None:
            tc = self.trace_cache.stats
            telemetry.update({
                "fetch.tc.lookups": tc.lookups,
                "fetch.tc.hits": tc.hits,
                "fetch.tc.fills": tc.fills,
                "fetch.tc.refreshes": tc.refreshes,
                "fetch.tc.multipath_hits": tc.multipath_hits,
                "fetch.tc.evictions": tc.evictions,
                "fetch.tc.dead_evictions": tc.dead_evictions,
                "fetch.tc.resident_segments":
                    self.trace_cache.resident_segments(),
            })


__all__ = ["FetchStage"]
