"""Rename stage: in-order rename with checkpoint-repair limits.

In-order rename with three structural limits: issue width (16/cycle),
checkpoints (3 conditional-branch-delimited blocks/cycle, checkpoint
repair), and the in-flight window (rename of instruction *k* waits
until instruction *k - window* has retired). The stage owns the
rename bandwidth state — the current rename cycle and what it has
renamed so far — and the checkpoint store's acquire side.

Marked register moves rename like any instruction (they consume
decode and rename bandwidth) but complete *inside* this stage: the
destination mapping is copied from the source mapping, so no
reservation station or functional unit is consumed (the paper's §4.2
mechanism).
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

    def __init__(self, config: SimConfig, checkpoints: Any,
                 registry: TelemetryRegistry, events: Any) -> None:
        self.checkpoints = checkpoints
        self.events = events
        self.width = config.issue_width
        self.max_blocks = config.max_blocks_per_cycle
        self.window = config.window_size
        #: the cycle now renaming, and the instructions and blocks
        #: (conditional branches) it has renamed
        self._cycle = 0
        self._count = 0
        self._blocks = 0
        #: the three stall taxonomies
        self.window_stalls = 0
        self.width_stalls = 0
        self.block_limit_stalls = 0
        self._m = m = MetricBlock(registry, _SCOPES)
        self._checkpoint_stalls = m.checkpoint_stalls
        self._moves_eliminated = m.moves_eliminated
        self._registry = registry

    def process(self, state: MachineState, entry: FetchEntry) -> None:
        decoded = entry.decoded
        group = state.group
        assert group is not None
        fetch_cycle = group.fetch_cycle
        earliest = fetch_cycle + 1
        retire_cycles = state.retire_cycles
        entry.seq = seq = len(retire_cycles)
        window = self.window
        if seq >= window and retire_cycles[seq - window] >= earliest:
            # the instruction *window* older has not retired yet
            earliest = retire_cycles[seq - window] + 1
            self.window_stalls += 1
        is_branch = decoded.is_cond_branch
        if is_branch:
            checkpoint_free = self.checkpoints.acquire(fetch_cycle + 1)
            if checkpoint_free > fetch_cycle + 1:
                self._checkpoint_stalls.value += 1
                record = entry.record
                self.events.emit(CHECKPOINT_REPAIR, fetch_cycle,
                                 pc=record.pc if record else 0,
                                 resume=checkpoint_free)
                if checkpoint_free > earliest:
                    earliest = checkpoint_free
        if earliest > self._cycle:
            renamed = earliest
            count = blocks = 0
        else:
            renamed = self._cycle
            count = self._count
            blocks = self._blocks
        # Widths are at least 1, so one cycle bump frees a slot.
        if is_branch and blocks >= self.max_blocks:
            self.block_limit_stalls += 1
            renamed += 1
            count = blocks = 0
        elif count >= self.width:
            self.width_stalls += 1
            renamed += 1
            count = blocks = 0
        self._cycle = renamed
        self._count = count + 1
        self._blocks = blocks + 1 if is_branch else blocks
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
        registry.counter("rename.window_stalls").add(self.window_stalls)
        registry.counter("rename.width_stalls").add(self.width_stalls)
        registry.counter("rename.block_limit_stalls").add(
            self.block_limit_stalls)


__all__ = ["RenameStage"]
