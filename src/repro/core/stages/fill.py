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
    InstrSlot,
    MachineState,
    PipelineStage,
)
from repro.telemetry.registry import TelemetryRegistry


class FillStage(PipelineStage):
    """Streams retired instructions into the fill unit."""

    name = "fill"

    def __init__(self, fill_unit: Optional[Any],
                 registry: TelemetryRegistry) -> None:
        self.fill_unit = fill_unit
        self._registry = registry

    def process(self, state: MachineState, slot: InstrSlot) -> None:
        entry = slot.entry
        if entry.phantom or self.fill_unit is None:
            return
        self.fill_unit.retire(entry.record, slot.retire_cycle)

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        if self.fill_unit is None:
            return
        result.segments_built = self.fill_unit.stats.segments_built
        result.segments_deduped = self.fill_unit.stats.segments_deduped
        result.pass_totals = self.fill_unit.pass_totals
        self._registry.counter("fillunit.instructions_collected").add(
            self.fill_unit.stats.instructions_collected)


__all__ = ["FillStage"]
