"""Retire stage: in-order retirement, branch resolution and recovery.

Owns the retire bandwidth state (the retire cycle and how many
instructions it has retired, bounded by the retire width), the
checkpoint store's commit side, branch-outcome accounting (including
promoted and predicated-away branches), mispredict redirect pushback
on the next fetch group and wrong-path pollution. Retire is pure
timing: observers of the retirement stream (cycle attribution, timing
capture) are stages of their own, appended after this one.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import SimConfig
from repro.core.results import SimResult
from repro.core.stages.base import (
    FetchEntry,
    MachineState,
    MetricBlock,
    PipelineStage,
)
from repro.telemetry.events import BRANCH_MISPREDICT
from repro.telemetry.registry import TelemetryRegistry

_SCOPES = {
    "cond_branches": "branch.cond.seen",
    "mispredicts": "branch.cond.mispredicts",
    "promoted_fetches": "branch.promoted.fetches",
    "promoted_mispredicts": "branch.promoted.mispredicts",
    "indirect_mispredicts": "branch.indirect.mispredicts",
    "predicated_branches": "predication.branches",
}


class RetireStage(PipelineStage):
    """In-order retirement plus control-flow bookkeeping."""

    name = "retire"

    def __init__(self, config: SimConfig, checkpoints: Any,
                 predictor: Any, registry: TelemetryRegistry,
                 events: Any) -> None:
        self.width = config.retire_width
        #: the cycle now retiring, and how many it has retired
        self._cycle = 0
        self._count = 0
        self.checkpoints = checkpoints
        self.predictor = predictor
        self.events = events
        self.redirect = config.mispredict_redirect
        self._m = m = MetricBlock(registry, _SCOPES)
        self._cond_branches = m.cond_branches
        self._mispredicts = m.mispredicts
        self._promoted_fetches = m.promoted_fetches
        self._promoted_mispredicts = m.promoted_mispredicts
        self._indirect_mispredicts = m.indirect_mispredicts
        self._predicated_branches = m.predicated_branches

    def process(self, state: MachineState, entry: FetchEntry) -> None:
        if entry.phantom:
            return
        group = state.group
        assert group is not None
        record = entry.record
        decoded = entry.decoded
        complete = entry.complete

        # In order: no earlier than the previous retirement, and at
        # most ``width`` per cycle.
        if complete >= self._cycle:
            retire_cycle = self._cycle = complete + 1
            self._count = 1
        elif self._count >= self.width:
            retire_cycle = self._cycle = self._cycle + 1
            self._count = 1
        else:
            retire_cycle = self._cycle
            self._count += 1
        state.retire_cycles.append(retire_cycle)
        entry.retire_cycle = retire_cycle

        # Branch accounting follows the architected instruction, which
        # the segment may carry predicated away (as a NOP).
        arch_cond_branch = record.instr.decoded.is_cond_branch
        if arch_cond_branch:
            self._cond_branches.value += 1
            # The bias table keeps learning from the architected
            # branch even when the segment carries it predicated away.
            self.predictor.record_outcome(record.pc, record.taken)
            if not decoded.guarded and not decoded.is_cond_branch:
                self._predicated_branches.value += 1
            if entry.promoted:
                self._promoted_fetches.value += 1
                if entry.mispredicted:
                    self._promoted_mispredicts.value += 1
            if entry.mispredicted:
                self._mispredicts.value += 1
                self.events.emit(BRANCH_MISPREDICT, complete,
                                 pc=record.pc, taken=record.taken,
                                 promoted=entry.promoted,
                                 indirect=False)
        elif entry.mispredicted:
            self._indirect_mispredicts.value += 1
            self.events.emit(BRANCH_MISPREDICT, complete,
                             pc=record.pc, taken=True,
                             promoted=False, indirect=True)

        if decoded.is_cond_branch:    # it holds a checkpoint (rename)
            self.checkpoints.commit(complete)
        if entry.mispredicted:
            resume = complete + self.redirect
            if resume > group.next_fetch:
                group.recovery_bump += resume - group.next_fetch
                group.next_fetch = resume
            if state.wrong_path is not None and arch_cond_branch:
                state.wrong_path.pollute(
                    state.wrong_path.wrong_target(record),
                    max(0, complete - group.fetch_cycle))
        if decoded.is_serializing:
            group.serialize_after = retire_cycle

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        m = self._m
        result.cond_branches = m.delta("cond_branches")
        result.mispredicts = m.delta("mispredicts")
        result.promoted_fetches = m.delta("promoted_fetches")
        result.promoted_mispredicts = m.delta("promoted_mispredicts")
        result.indirect_mispredicts = m.delta("indirect_mispredicts")
        result.predicated_branches = m.delta("predicated_branches")


__all__ = ["RetireStage"]
