"""Segment observers: the fill unit's and trace cache's telemetry.

With a session the engine appends :class:`EventStage`, and with span
capture :class:`SpanStage`; both turn the segment hooks of
:class:`~repro.core.stages.base.PipelineStage` into session output.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.results import SimResult
from repro.core.stages.base import MachineState, PipelineStage
from repro.fillunit.unit import FillUnit
from repro.telemetry import events as ev
from repro.telemetry.spans import SpanRecorder


class EventStage(PipelineStage):
    """Emits the segment kinds of the event stream."""

    name = "events"

    def __init__(self, events: Any) -> None:
        self.emit = events.emit

    def segment_collected(self, candidate: Any, cycle: int,
                          deduped: bool) -> None:
        if deduped:
            self.emit(ev.SEGMENT_DEDUPED, cycle, start_pc=candidate.start_pc)

    def pass_applied(self, segment: Any, index: int, name: str,
                     stats: Dict[str, int],
                     rejections: Dict[Tuple[str, str], int],
                     cycle: int) -> None:
        for key, count in stats.items():
            if count:
                self.emit(ev.OPT_APPLIED, cycle, opt=name, stat=key,
                          count=count, start_pc=segment.start_pc)
        for (opt, reason), count in rejections.items():
            self.emit(ev.OPT_REJECTED, cycle, opt=opt, reason=reason,
                      count=count, start_pc=segment.start_pc)

    def segment_verified(self, segment: Any, violations: List[Any],
                         cycle: int) -> None:
        for v in violations:
            self.emit(ev.VERIFY_VIOLATION, cycle, start_pc=segment.start_pc,
                      opt=v.pass_name or "(pipeline)", rule=v.rule,
                      severity=v.severity, index=v.index,
                      message=v.message)

    def line_displaced(self, key: Tuple[int, tuple], cycle: int,
                       incoming: Any, evicted: bool) -> None:
        if evicted:
            self.emit(ev.TC_EVICT, cycle, start_pc=key[0],
                      for_pc=incoming.start_pc)

    def segment_built(self, segment: Any, cycle: int) -> None:
        promoted = [info for info in segment.branches if info.promoted]
        self.emit(ev.SEGMENT_BUILT, cycle, start_pc=segment.start_pc,
                  instrs=len(segment.instrs), blocks=segment.block_count,
                  branches=len(segment.branches), promoted=len(promoted))
        for info in promoted:
            self.emit(ev.BRANCH_PROMOTED, cycle, pc=info.pc,
                      direction=info.direction, start_pc=segment.start_pc)


class SpanStage(PipelineStage):
    """Records collection windows, the fill-pipeline window and its
    slots, trace-cache residency and insert/reuse/evict instants."""

    name = "spans"

    def __init__(self, recorder: SpanRecorder,
                 fill_unit: Optional[FillUnit]) -> None:
        self.recorder = recorder
        self.fill_unit = fill_unit
        self.latency, self._share, self._verify_offset = 0, 0.0, 0.0
        #: resident lines: key -> (fill cycle, start pc, instrs)
        self._residency: Dict[Tuple[int, tuple],
                              Tuple[float, int, int]] = {}
        self._retire_cycles: List[int] = []
        # the last retire to finalize a candidate: count, window, cycle
        self._retired = -1
        self._window_start = 0
        self._next_start: Optional[int] = None

    def begin_run(self, state: MachineState) -> None:
        self._retire_cycles = state.retire_cycles
        self._retired = -1
        unit = self.fill_unit
        if unit is not None:
            # The passes, then verify, split [cycle, cycle + latency)
            # evenly: a picture, as the paper only models total latency.
            passes = len(unit.passes.passes)
            self.latency = unit.config.fill_latency
            self._share = self.latency / max(
                passes + (unit.verifier is not None), 1)
            self._verify_offset = passes * self._share

    def begin_group(self, state: MachineState) -> None:
        group = state.group
        assert group is not None
        segment = group.segment
        if segment is not None:
            self.recorder.instant(
                "tracecache", "tc.reuse", float(group.fetch_cycle),
                start_pc=segment.start_pc, instrs=len(segment.instrs))

    def segment_collected(self, candidate: Any, cycle: int,
                          deduped: bool) -> None:
        retired = len(self._retire_cycles)
        if retired != self._retired:
            # A new finalizing retire: its candidates opened at the last
            # one (or at the first retire); the next candidate opens now.
            self._retired = retired
            self._window_start = (self._next_start
                                  if self._next_start is not None
                                  else self._retire_cycles[0])
            self._next_start = cycle
        start = self._window_start
        self.recorder.span(
            "fillunit", "segment.collect", start, cycle - start,
            start_pc=candidate.start_pc, instrs=len(candidate))
        if not deduped:
            self.recorder.span(
                "fillunit", "segment.optimize", cycle, self.latency,
                start_pc=candidate.start_pc, instrs=len(candidate))

    def pass_applied(self, segment: Any, index: int, name: str,
                     stats: Dict[str, int],
                     rejections: Dict[Tuple[str, str], int],
                     cycle: int) -> None:
        applied: Dict[str, Any] = {
            key: count for key, count in stats.items() if count}
        self.recorder.span(
            "fillunit", f"pass.{name}", cycle + index * self._share,
            self._share, start_pc=segment.start_pc, **applied)

    def segment_verified(self, segment: Any, violations: List[Any],
                         cycle: int) -> None:
        start = cycle + self._verify_offset
        self.recorder.span(
            "fillunit", "segment.verify", start,
            cycle + self.latency - start, start_pc=segment.start_pc,
            violations=len(violations))

    def line_displaced(self, key: Tuple[int, tuple], cycle: int,
                       incoming: Any, evicted: bool) -> None:
        resident = self._residency.pop(key, None)
        if resident is not None:
            self._residency_span(resident, float(cycle))
        if evicted:
            self.recorder.instant(
                "tracecache", "tc.evict", float(cycle), start_pc=key[0],
                for_pc=incoming.start_pc)

    def segment_built(self, segment: Any, cycle: int) -> None:
        fill_cycle = float(cycle + self.latency)
        start_pc, instrs = segment.start_pc, len(segment.instrs)
        self.recorder.instant("tracecache", "tc.insert", fill_cycle,
                              start_pc=start_pc, instrs=instrs)
        self._residency[(start_pc, segment.path_key)] = (
            fill_cycle, start_pc, instrs)

    def _residency_span(self, resident: Tuple[float, int, int],
                        end: float) -> None:
        fill_cycle, start_pc, instrs = resident
        self.recorder.span("tracecache", "tc.residency", fill_cycle,
                           end - fill_cycle, start_pc=start_pc,
                           instrs=instrs)

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        if state is not None:   # close still-resident segments' spans
            end = float(result.cycles)
            for resident in self._residency.values():
                self._residency_span(resident, end)


__all__ = ["EventStage", "SpanStage"]
