"""The replay engine: a stage list driven over the committed stream.

:class:`Engine` owns the machine's components (predictor, memory
hierarchy, trace cache + fill unit, checkpoint store) and an ordered
list of :class:`~repro.core.stages.base.PipelineStage` objects —
fetch, rename, issue, execute, retire, fill.
One :class:`~repro.core.stages.base.MachineState` object is the
explicit handoff between stages; see ``docs/architecture.md`` for the
contract.

Methodology (DESIGN.md §3): instructions are processed in committed
order; each acquires fetch, rename, execute and retire cycles subject
to structural and dataflow constraints. Mispredicted branches stall
subsequent fetch until resolution — *except* the instructions already
inside the same trace segment along the correct path, which is exactly
the inactive-issue benefit of the baseline machine.

The engine is deliberately dumb: all microarchitectural behaviour
lives in the stages, and the engine only sequences them. Observers
are stages too: they are appended to ``engine.stages`` before
``run()`` and read each finished fetch group in ``end_group`` (they
must not mutate timing state). There is one path through the loop:
every group runs the five per-instruction stages instruction by
instruction, observed or not.

Observability: once a run finishes, every stage writes its counts to
:class:`~repro.core.results.SimResult`'s ``telemetry`` dict, and the
typed counters are read from it; engines sharing a
:class:`~repro.telemetry.Telemetry` session share only its event
stream and span recorder. With a session attached the stages
additionally emit structured events (mispredicts, trace cache
misfetches, checkpoint repairs) and observer stages join the stage
list (segment events and spans, fed by segment hooks); without one,
event emission collapses to a null-object no-op. Cycle attribution is
not an observer: the retire stage builds it in every run.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.branch.predictor import MultiBranchPredictor
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.clusters import CheckpointStore
from repro.core.config import SimConfig
from repro.core.memsched import MemoryScheduler
from repro.core.results import SimResult
from repro.core.stages.base import MachineState, PipelineStage
from repro.core.stages.execute import ExecuteStage
from repro.core.stages.fetch import FetchStage
from repro.core.stages.fill import FillStage
from repro.core.stages.issue import IssueStage
from repro.core.stages.observers import EventStage, SpanStage
from repro.core.stages.rename import RenameStage
from repro.core.stages.retire import RetireStage
from repro.errors import ConfigError, ReproError
from repro.fillunit.unit import FillUnit
from repro.telemetry.events import (
    NULL_EVENT_STREAM,
    RUN_FINISHED,
    RUN_STARTED,
)


#: the stages whose ``process`` is the per-instruction chain, in order
PIPELINE = ("rename", "issue", "execute", "retire", "fill")


class Engine:
    """One configured machine instance; replays committed traces."""

    def __init__(self, config: SimConfig,
                 telemetry: Optional[Any] = None) -> None:
        self.config = config
        self.telemetry = telemetry
        self.events = (telemetry.events if telemetry is not None
                       else NULL_EVENT_STREAM)
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.predictor = MultiBranchPredictor(config.predictor)
        self.fill_unit = (FillUnit(config, self.predictor.bias)
                          if config.trace_cache_enabled else None)
        #: the fill unit's trace cache, by a second name that
        #: ``bench/`` reads (fetch reads the fill unit's)
        self.trace_cache = (self.fill_unit.trace_cache
                            if self.fill_unit is not None else None)
        self.checkpoints = CheckpointStore(config.max_checkpoints)
        self.memsched = MemoryScheduler(self.hierarchy,
                                        config.store_forward_window)
        #: the stage list, in pipeline order. Owned by the engine;
        #: observer stages (e.g. :class:`~repro.core.stages.observers.
        #: EventStage`) may be appended before ``run()``.
        self.stages: List[PipelineStage] = [
            FetchStage(config, self.hierarchy, self.predictor,
                       self.fill_unit, self.events),
            RenameStage(config, self.checkpoints, self.events),
            IssueStage(config),
            ExecuteStage(self.memsched),
            RetireStage(config, self.checkpoints, self.predictor,
                        self.events),
            FillStage(self.fill_unit),
        ]
        if telemetry is not None:
            self.stages.append(EventStage(self.events))
            if telemetry.spans is not None:
                self.stages.append(SpanStage(telemetry.spans,
                                             self.fill_unit))
        #: set by the first ``run()``: the components keep their state
        #: (clocks, caches, counters), so an engine replays one trace
        self._ran = False

    def hooks(self, name: str) -> Tuple[Callable[..., Any], ...]:
        """The chain :meth:`run` drives for hook *name*: the bound hook
        of every stage whose class overrides it, in stage-list order.

        Fetch has no per-instruction work and observers read the
        finished group, so the ``process`` chain is rename, issue,
        execute, retire and fill whether the run is observed or not
        (:meth:`run` refuses any other chain); each link gets the
        fetch entry, which carries the instruction's timeline. The
        fill link is the fill unit's own collection entry point (see
        :class:`~repro.core.stages.fill.FillStage`)."""
        return tuple(getattr(stage, name) for stage in self.stages
                     if stage.overrides(name))

    def _segment_hooks(self, hooks: Callable[[str], Tuple[Any, ...]]
                       ) -> None:
        """Give the fill unit and trace cache the segment-hook chains
        that *hooks* returns."""
        fill_unit = self.fill_unit
        if fill_unit is not None:
            fill_unit.collect_hooks = hooks("segment_collected")
            fill_unit.pass_hooks = hooks("pass_applied")
            fill_unit.verify_hooks = hooks("segment_verified")
            fill_unit.trace_cache.displace_hooks = hooks("line_displaced")
            fill_unit.build_hooks = hooks("segment_built")

    def _install_policy_hints(self, program: Any) -> None:
        """Feed static temperature hints to a hint-capable trace cache
        replacement policy (TRRIP)."""
        tc = self.trace_cache
        if tc is None or not hasattr(tc.policy, "set_static_hints"):
            return
        from repro.cache.hints import static_temperature_hints
        tc.policy.set_static_hints(static_temperature_hints(program))

    # ==================================================================
    # The replay loop
    # ==================================================================

    def run(self, trace: Any, benchmark: str = "bench",
            label: str = "run", program: Optional[Any] = None
            ) -> SimResult:
        """Replay *trace* (a :class:`CommittedTrace`) and return the
        per-run statistics. An engine runs once; build a fresh one
        for every run.

        The static image comes from ``trace.program`` (set by
        :meth:`Executor.run`). It is required when
        ``config.model_wrong_path`` is set — wrong-path instructions
        are decoded from it — and, when present, also feeds static
        temperature hints (natural-loop membership joined with
        instruction mix) to a TRRIP-style trace cache replacement
        policy. *program* may be passed too, but only as the trace's
        own image.

        Raises:
            ConfigError: when *program* is not ``trace.program``,
                wrong-path modeling is requested without an image, or
                a stage other than the five pipeline stages overrides
                ``process`` (observers read the finished group in
                ``end_group``).
            ReproError: when this engine has already run.
        """
        config = self.config
        if self._ran:
            raise ReproError("an Engine runs once: its components keep "
                             "the first run's state; build a new Engine")
        owners = tuple(stage.name for stage in self.stages
                       if stage.overrides("process"))
        if owners != PIPELINE:
            raise ConfigError(
                f"the per-instruction chain must be {', '.join(PIPELINE)}"
                f", got {', '.join(owners)}: an observer stage reads the "
                f"finished group in end_group, not process")
        image = trace.program
        if program is not None and program is not image:
            raise ConfigError(
                "program= must be the trace's own image (trace.program)")
        if config.model_wrong_path and image is None:
            raise ConfigError(
                "model_wrong_path requires the program image")
        self._ran = True
        if image is not None:
            self._install_policy_hints(image)
        wrong_path: Optional[Any] = None
        if config.model_wrong_path:
            from repro.core.wrongpath import WrongPathFetcher
            wrong_path = WrongPathFetcher(image, self.hierarchy,
                                          config.ic_fetch_width)
        records = trace.records
        n = len(records)
        result = SimResult(benchmark=benchmark, config_label=label,
                           instructions=n, cycles=0)
        events = self.events
        events.emit(RUN_STARTED, 0, benchmark=benchmark, label=label,
                    instructions=n)
        if n == 0:
            self._finish_stats(None, result)
            events.emit(RUN_FINISHED, 0, benchmark=benchmark,
                        label=label, instructions=0, cycles=0, ipc=0.0)
            return result

        reg_ready: List[Tuple[int, Optional[int]]] = [(0, None)] * 32
        state = MachineState(records=records, n=n, result=result,
                             reg_ready=reg_ready, wrong_path=wrong_path)

        stages = self.stages
        # The hook chains, built once per run; the segment-hook chains
        # go to the components that call them, for this run only.
        hooks = self.hooks
        begin_group = hooks("begin_group")
        rename, issue, execute, retire, fill = hooks("process")
        end_group = hooks("end_group")
        try:
            self._segment_hooks(hooks)
            for stage in stages:
                stage.begin_run(state)
            while state.index < n:
                for hook in begin_group:
                    hook(state)
                group = state.group
                assert group is not None
                for entry in group.entries:
                    rename(state, entry)
                    issue(state, entry)
                    execute(state, entry)
                    retire(state, entry)
                    fill(state, entry)
                for hook in end_group:
                    hook(state)
                state.index += group.consumed
        finally:
            # A stage may hold the fill unit, so its chains would be a
            # reference cycle: drop them, and the engine's parts are
            # freed by reference counting once the engine is.
            self._segment_hooks(lambda name: ())

        result.cycles = state.retire_cycles[-1]
        self._finish_stats(state, result)
        events.emit(RUN_FINISHED, result.cycles, benchmark=benchmark,
                    label=label, instructions=n, cycles=result.cycles,
                    ipc=result.ipc,
                    mispredict_rate=result.mispredict_rate,
                    tc_instr_fraction=result.tc_instr_fraction,
                    attribution=result.attribution)
        return result

    # ------------------------------------------------------------------

    def _finish_stats(self, state: Optional[MachineState],
                      result: SimResult) -> None:
        """Let every stage write its counts to ``result.telemetry``
        (and the retire stage the attribution), and sort that by
        scope."""
        for stage in self.stages:
            stage.finish_run(state, result)
        result.telemetry = dict(sorted(result.telemetry.items()))


__all__ = ["Engine"]
