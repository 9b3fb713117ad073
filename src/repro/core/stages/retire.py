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
from repro.core.stages.base import FetchEntry, MachineState, PipelineStage
from repro.telemetry.events import BRANCH_MISPREDICT

class RetireStage(PipelineStage):
    """In-order retirement plus control-flow bookkeeping."""

    name = "retire"

    def __init__(self, config: SimConfig, checkpoints: Any,
                 predictor: Any, events: Any) -> None:
        self.width = config.retire_width
        #: the cycle now retiring, and how many it has retired
        self._cycle = 0
        self._count = 0
        self.checkpoints = checkpoints
        self.predictor = predictor
        self.events = events
        self.redirect = config.mispredict_redirect
        #: conditional branches retired, and how many the segment
        #: carried predicated away, promoted or mispredicted
        self.cond_branches = 0
        self.predicated_branches = 0
        self.promoted_fetches = 0
        self.promoted_mispredicts = 0
        self.mispredicts = 0
        #: mispredicted indirect jumps and returns
        self.indirect_mispredicts = 0

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
            self.cond_branches += 1
            # The bias table keeps learning from the architected
            # branch even when the segment carries it predicated away.
            self.predictor.record_outcome(record.pc, record.taken)
            if not decoded.guarded and not decoded.is_cond_branch:
                self.predicated_branches += 1
            if entry.promoted:
                self.promoted_fetches += 1
                if entry.mispredicted:
                    self.promoted_mispredicts += 1
            if entry.mispredicted:
                self.mispredicts += 1
                self.events.emit(BRANCH_MISPREDICT, complete,
                                 pc=record.pc, taken=record.taken,
                                 promoted=entry.promoted,
                                 indirect=False)
        elif entry.mispredicted:
            self.indirect_mispredicts += 1
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
        telemetry = result.telemetry
        telemetry.update({
            "branch.cond.seen": self.cond_branches,
            "branch.cond.mispredicts": self.mispredicts,
            "branch.promoted.fetches": self.promoted_fetches,
            "branch.promoted.mispredicts": self.promoted_mispredicts,
            "branch.indirect.mispredicts": self.indirect_mispredicts,
            "predication.branches": self.predicated_branches,
        })
        # only a run that models the wrong path has the scope
        if state is not None and state.wrong_path is not None:
            telemetry["branch.wrong_path.fetches"] = \
                state.wrong_path.instructions


__all__ = ["RetireStage"]
