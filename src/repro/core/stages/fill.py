"""Fill stage: feeds the fill unit behind retirement.

Every retiring committed instruction streams into the fill unit's
collector; the fill unit segments the stream, runs the configured
optimization passes, and installs finalized segments into the trace
cache after the fill pipeline latency. Phantoms never reach it — they
correspond to no committed record.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.results import SimResult, histogram
from repro.core.stages.base import (
    FetchEntry,
    MachineState,
    PipelineStage,
)


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

    def __init__(self, fill_unit: Optional[Any]) -> None:
        self.fill_unit = fill_unit
        if fill_unit is not None:
            self.process = fill_unit.collect  # type: ignore[method-assign]

    def process(self, state: MachineState, entry: FetchEntry) -> None:
        """No trace cache: nothing to fill."""

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        unit = self.fill_unit
        if unit is None:
            return
        stats = unit.stats
        result.telemetry.update({
            "fillunit.branches.promoted": stats.branches_promoted,
            "fillunit.segment.length": histogram(stats.segment_lengths),
            **unit.counts,
        })
        if unit.verifier is not None:
            report = unit.verifier.report
            telemetry = result.telemetry
            telemetry["fillunit.verify.segments_checked"] = (
                report.segments_checked)
            telemetry["fillunit.verify.segments_clean"] = (
                report.segments_clean)
            # one count per rule, over passes and severities
            for counts in (report.violation_counts, report.warning_counts):
                for (_, rule), count in counts.items():
                    scope = ("fillunit.verify.violations."
                             + rule.replace("-", "_"))
                    telemetry[scope] = telemetry.get(scope, 0) + count


__all__ = ["FillStage"]
