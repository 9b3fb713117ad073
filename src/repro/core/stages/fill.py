"""Fill stage: feeds the fill unit behind retirement.

Every retiring committed instruction streams into the fill unit's
collector; the fill unit segments the stream, runs the configured
optimization passes, and installs finalized segments into the trace
cache after the fill pipeline latency. Phantoms never reach it — they
correspond to no committed record.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.results import SimResult
from repro.core.stages.base import (
    FetchEntry,
    MachineState,
    PipelineStage,
)
from repro.telemetry.registry import TelemetryRegistry


class FillStage(PipelineStage):
    """Streams retired instructions into the fill unit's collector."""

    name = "fill"

    def __init__(self, fill_unit: Optional[Any],
                 registry: TelemetryRegistry) -> None:
        self.fill_unit = fill_unit
        #: the fill unit's feed for its packing mode; it hands each
        #: finalized candidate to the fill unit's build path
        self._feed = fill_unit.feed if fill_unit is not None else None
        self._registry = registry

    def process(self, state: MachineState, entry: FetchEntry) -> None:
        feed = self._feed
        if feed is not None and not entry.phantom:
            feed(entry.record, entry.retire_cycle)

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        if self.fill_unit is None:
            return
        result.segments_built = self.fill_unit.stats.segments_built
        result.segments_deduped = self.fill_unit.stats.segments_deduped
        result.pass_totals = self.fill_unit.pass_totals
        self._registry.counter("fillunit.instructions_collected").add(
            self.fill_unit.collected)


__all__ = ["FillStage"]
