"""Retire stage: in-order retirement, branch resolution and recovery.

Owns the retire bandwidth state (the retire cycle and how many
instructions it has retired, bounded by the retire width), the
checkpoint store's commit side, branch-outcome accounting (including
promoted and predicated-away branches), mispredict redirect pushback
on the next fetch group and wrong-path pollution. It also logs every
retirement that skips cycles to ``MachineState.retire_log`` and, once
the run finishes, classifies those gaps into the run's cycle
attribution (:func:`repro.telemetry.attribution.attribute_cycles`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import SimConfig
from repro.core.results import SimResult
from repro.core.stages.base import FetchEntry, MachineState, PipelineStage
from repro.telemetry.attribution import attribute_cycles
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
        #: how the attribution charges a bypass-penalized gap and
        #: names fetch latency
        self.bypass_penalty = config.cross_cluster_penalty
        self.extra_is_tc_miss = config.trace_cache_enabled
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
        # the group is read only on the rare paths below (a gap, a
        # mispredict, a serializing instruction)
        record = entry.record
        decoded = entry.decoded
        complete = entry.complete

        # In order: no earlier than the previous retirement, and at
        # most ``width`` per cycle. A retirement more than one cycle
        # after the previous one leaves a gap for the attribution.
        if complete >= self._cycle:
            if complete > self._cycle:
                group = state.group
                assert group is not None
                state.retire_log.append((entry.seq, group.fetch_cycle,
                                         complete, self._cycle,
                                         entry.penalized))
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
            group = state.group
            assert group is not None
            resume = complete + self.redirect
            if resume > group.next_fetch:
                group.recovery_bump += resume - group.next_fetch
                group.next_fetch = resume
            if state.wrong_path is not None and arch_cond_branch:
                state.wrong_path.pollute(
                    state.wrong_path.wrong_target(record),
                    max(0, complete - group.fetch_cycle))
        if decoded.is_serializing:
            group = state.group
            assert group is not None
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
        if state is None:   # an empty trace has no attribution
            return
        # only a run that models the wrong path has the scope
        if state.wrong_path is not None:
            telemetry["branch.wrong_path.fetches"] = \
                state.wrong_path.instructions
        result.attribution = attribute_cycles(
            state.retire_log, state.fetch_log, result.cycles,
            self.bypass_penalty, self.extra_is_tc_miss)


__all__ = ["RetireStage"]
