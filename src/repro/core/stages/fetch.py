"""Fetch stage: trace-cache-first group assembly.

Probes the trace cache (path-associative, predictor-arbitrated) and
falls back to block-granular fetch from the supporting instruction
cache. Owns the front-end sequencing: the requested fetch cycle, the
I-cache miss delay, and — in :meth:`FetchStage.end_group` — the next
group's earliest fetch cycle after this group's mispredict redirects
and serialization drains.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.core.config import SimConfig
from repro.core.results import SimResult
from repro.core.stages.base import (
    FetchEntry,
    FetchGroup,
    MachineState,
    MetricBlock,
    PipelineStage,
)
from repro.telemetry.events import FETCH_MISFETCH
from repro.telemetry.registry import TelemetryRegistry
from repro.tracecache.segment import PREDICTED, PROMOTED

#: registry scope behind each hot-path counter this stage maintains.
_SCOPES = {
    "tc_instrs": "fetch.tc.instrs",
    "ic_instrs": "fetch.ic.instrs",
    "cov_moves": "fetch.tc.opt.moves",
    "cov_reassoc": "fetch.tc.opt.reassoc",
    "cov_scaled": "fetch.tc.opt.scaled",
    "cov_any": "fetch.tc.opt.any",
}


class FetchStage(PipelineStage):
    """Assembles fetch groups; owns predictor fetch-time training."""

    name = "fetch"

    def __init__(self, config: SimConfig, hierarchy: Any,
                 predictor: Any, trace_cache: Optional[Any],
                 fill_unit: Optional[Any],
                 registry: TelemetryRegistry, events: Any) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.trace_cache = trace_cache
        self.fill_unit = fill_unit
        self.events = events
        self._ic_line_mask = ~(config.hierarchy.l1i_line - 1)
        self._m = m = MetricBlock(registry, _SCOPES)
        self._tc_instrs = m.tc_instrs
        self._ic_instrs = m.ic_instrs
        self._cov_moves = m.cov_moves
        self._cov_reassoc = m.cov_reassoc
        self._cov_scaled = m.cov_scaled
        self._cov_any = m.cov_any
        self._group_size = registry.histogram("fetch.group.size")
        self._registry = registry
        #: the committed stream's pcs, which a line's path must match
        self._pcs: List[int] = []

    # ==================================================================
    # Group assembly
    # ==================================================================

    def begin_run(self, state: MachineState) -> None:
        self._pcs = [record.pc for record in state.records]

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
            self._tc_instrs.value += consumed
        else:
            entries, fetch_cycle = self._fetch_from_icache(records, start,
                                                           requested)
            consumed = len(entries)
            self._ic_instrs.value += consumed
        group = FetchGroup(entries, fetch_cycle, segment)
        state.group = group
        if not entries:     # defensive; cannot happen on real traces
            return
        group.fetch_extra = fetch_cycle - requested
        group.recovery = state.pending_recovery
        group.serialize = state.pending_serialize
        group.next_fetch = fetch_cycle + 1
        group.consumed = consumed
        self._group_size.observe(len(entries))

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

        Everything that depends only on the line comes from the fetch
        plan :meth:`TraceSegment.seal` recorded: the path is matched
        against the committed pcs, and only the control entries are
        walked, for the predictor and the return-address stack.
        """
        if segment.predicated:
            entries, consumed = self._walk_predicated(segment, records,
                                                      start)
        else:
            pcs = segment.pcs
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
            entries = [FetchEntry(record, instrs[index], slots[index], True)
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
            self._cov_any.value += optimized
            self._cov_moves.value += moves
            self._cov_reassoc.value += reassoc
            self._cov_scaled.value += scaled
        return entries, consumed

    def _walk_predicated(self, segment: Any, records: List[Any],
                         start: int) -> Tuple[List[FetchEntry], int]:
        """Match a predicated line entry by entry: a guarded entry off
        the actual path still issues, as a phantom, but consumes no
        committed record. Returns ``(entries, consumed)``."""
        pcs = segment.pcs
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
                entries.append(FetchEntry(None, instr, slots[index], True,
                                          phantom=True))
                continue
            entries.append(FetchEntry(records[stream], instr, slots[index],
                                      True))
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
            entry = FetchEntry(record, record.instr, len(entries), False)
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
        m = self._m
        registry = self._registry
        result.tc_fetched_instrs = m.delta("tc_instrs")
        result.ic_fetched_instrs = m.delta("ic_instrs")
        cov = result.coverage
        cov.moves = m.delta("cov_moves")
        cov.reassoc = m.delta("cov_reassoc")
        cov.scaled = m.delta("cov_scaled")
        cov.any_opt = m.delta("cov_any")

        # Per-component statistics (fresh per engine) mirrored into the
        # registry so one snapshot holds the whole machine.
        if self.trace_cache is not None:
            tc = self.trace_cache.stats
            result.tc_lookups = tc.lookups
            result.tc_hits = tc.hits
            registry.counter("fetch.tc.lookups").add(tc.lookups)
            registry.counter("fetch.tc.hits").add(tc.hits)
            registry.counter("fetch.tc.misses").add(tc.lookups - tc.hits)
            registry.counter("fetch.tc.fills").add(tc.fills)
            registry.counter("fetch.tc.refreshes").add(tc.refreshes)
            registry.counter("fetch.tc.multipath_hits").add(
                tc.multipath_hits)
            registry.counter("fetch.tc.evictions").add(tc.evictions)
            registry.counter("fetch.tc.dead_evictions").add(
                tc.dead_evictions)
            registry.gauge("fetch.tc.resident_segments").set(
                self.trace_cache.resident_segments())
        result.icache_misses = self.hierarchy.l1i.stats.misses
        registry.counter("mem.l1i.misses").add(result.icache_misses)

        pred = self.predictor.stats
        registry.counter("branch.pht.predictions").add(
            pred.cond_predictions)
        registry.counter("branch.pht.mispredicts").add(
            pred.cond_mispredicts)
        registry.counter("branch.indirect.predictions").add(
            pred.indirect_predictions)


__all__ = ["FetchStage"]
