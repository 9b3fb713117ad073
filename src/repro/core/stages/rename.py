"""Rename stage: in-order rename with checkpoint-repair limits.

Owns the rename unit (issue width, block limit, in-flight window) and
the checkpoint store's acquire side. Marked register moves complete
*inside* this stage — the destination mapping is copied from the
source mapping, so no reservation station or functional unit is
consumed (the paper's §4.2 mechanism).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core.config import SimConfig
from repro.core.results import SimResult
from repro.core.stages.base import (
    FetchEntry,
    MachineState,
    MetricBlock,
    PipelineStage,
)
from repro.telemetry.events import CHECKPOINT_REPAIR
from repro.telemetry.registry import TelemetryRegistry

#: scoreboard entry of a value that predates the window (or register
#: zero): ready at cycle 0, available in every cluster
_ARCHITECTED: Tuple[int, Optional[int]] = (0, None)

_SCOPES = {
    "checkpoint_stalls": "rename.checkpoint.stalls",
    "moves_eliminated": "rename.moves.eliminated",
}


class RenameStage(PipelineStage):
    """Assigns rename cycles; completes marked moves in-place."""

    name = "rename"

    def __init__(self, config: SimConfig, rename_unit: Any,
                 checkpoints: Any, registry: TelemetryRegistry,
                 events: Any) -> None:
        self.rename_unit = rename_unit
        self.checkpoints = checkpoints
        self.events = events
        self.window = config.window_size
        self._m = m = MetricBlock(registry, _SCOPES)
        self._checkpoint_stalls = m.checkpoint_stalls
        self._moves_eliminated = m.moves_eliminated
        self._registry = registry

    def process(self, state: MachineState, entry: FetchEntry) -> None:
        decoded = entry.decoded
        group = state.group
        assert group is not None
        fetch_cycle = group.fetch_cycle
        retire_cycles = state.retire_cycles
        entry.seq = seq = len(retire_cycles)
        window = self.window
        window_release = (retire_cycles[seq - window]
                          if seq >= window else 0)
        is_branch = decoded.is_cond_branch
        entry.is_branch = is_branch
        checkpoint_free = 0
        if is_branch:
            checkpoint_free = self.checkpoints.acquire(fetch_cycle + 1)
            if checkpoint_free > fetch_cycle + 1:
                self._checkpoint_stalls.value += 1
                record = entry.record
                self.events.emit(CHECKPOINT_REPAIR, fetch_cycle,
                                 pc=record.pc if record else 0,
                                 resume=checkpoint_free)
        renamed = self.rename_unit.rename(fetch_cycle, is_branch,
                                          window_release, checkpoint_free)
        entry.renamed = renamed
        if decoded.move and not entry.phantom:
            # A marked register move completes in rename: the
            # destination inherits the source's tag — same availability
            # time, same producing cluster — and no functional unit or
            # reservation station is consumed. (Phantoms issue and
            # execute downstream instead.)
            reg_ready = state.reg_ready
            src = decoded.move_src
            ready = reg_ready[src] if src is not None else _ARCHITECTED
            if decoded.dest is not None:
                reg_ready[decoded.dest] = ready
            entry.complete = max(renamed, ready[0])
            entry.penalized = False
            entry.executed = True
            self._moves_eliminated.value += 1

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        result.moves_eliminated = self._m.delta("moves_eliminated")
        registry = self._registry
        registry.counter("rename.window_stalls").add(
            self.rename_unit.window_stalls)
        registry.counter("rename.width_stalls").add(
            self.rename_unit.width_stalls)
        registry.counter("rename.block_limit_stalls").add(
            self.rename_unit.block_limit_stalls)


__all__ = ["RenameStage"]
