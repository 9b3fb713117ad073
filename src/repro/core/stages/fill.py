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
    """Streams retired instructions into the fill unit's collector.

    With a fill unit, this stage's ``process`` link is the fill unit's
    own collection entry point (:attr:`~repro.fillunit.collector.
    FillCollector.collect`), bound at construction: it takes the
    chain's ``(state, entry)``, skips phantoms and reads the entry's
    record and retire cycle, so the stage adds no call of its own per
    instruction. The class-level :meth:`process` is the no-op of a
    machine without a trace cache; the stage stays a link of the
    chain either way (:meth:`~PipelineStage.overrides` asks the
    class)."""

    name = "fill"

    def __init__(self, fill_unit: Optional[Any],
                 registry: TelemetryRegistry) -> None:
        self.fill_unit = fill_unit
        if fill_unit is not None:
            self.process = fill_unit.collect  # type: ignore[method-assign]
        self._registry = registry

    def process(self, state: MachineState, entry: FetchEntry) -> None:
        """No trace cache: nothing to fill."""

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
