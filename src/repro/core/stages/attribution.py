"""Attribution stage: exact top-down cycle accounting.

:class:`CycleAccountant` classifies every cycle of a replay into the
classes of :data:`repro.telemetry.attribution.CYCLE_CLASSES`, exactly:
they always sum to the run's cycle count. The engine appends it to its
stage list when the telemetry session asks for attribution; it runs
after retire. Between two consecutive retirement cycles every skipped
cycle is attributed by walking the *next* retiring instruction's own
timeline (fetch / complete / retire cycles plus the front-end delay
decomposition of its fetch group), newest cause first.

Front-end delays that *overlap* retirement of earlier instructions
(common on this machine: a one-cycle mispredict redirect hides behind
the previous group draining) are carried as *debts* — when the
pipeline later stalls refilling, those waiting cycles are charged to
the original cause (``mispredict_recovery``, ``tc_miss``, ``drain``)
rather than generic ``issue_bound``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.results import SimResult
from repro.core.stages.base import InstrSlot, MachineState, PipelineStage
from repro.errors import ConfigError
from repro.telemetry.attribution import CYCLE_CLASSES


class CycleAccountant(PipelineStage):
    """Online cycle classifier fed from the retirement stream.

    As a stage it feeds :meth:`on_retire` once per committed
    instruction, in program order, and writes ``result.attribution``
    at the end of the run; :meth:`on_retire` and :meth:`finish` also
    work directly on a synthetic retirement stream. Front-end fetch
    latency is ``tc_miss`` when *extra_is_tc_miss* (a trace cache is
    present), else ``fetch_starved``.
    """

    name = "attribution"

    def __init__(self, bypass_penalty: int = 1,
                 extra_is_tc_miss: bool = True) -> None:
        self.bypass_penalty = bypass_penalty
        self._extra_class = ("tc_miss" if extra_is_tc_miss
                             else "fetch_starved")
        self._reset()

    def _reset(self) -> None:
        self.classes: Dict[str, int] = dict.fromkeys(CYCLE_CLASSES, 0)
        self._last_retire = 0
        # Front-end delays not yet charged to a stall gap (see module
        # docstring): redirect, fetch-latency, serialization.
        self._recovery_debt = 0
        self._extra_debt = 0
        self._serialize_debt = 0

    # -- the stage contract ---------------------------------------------

    def begin_run(self, state: MachineState) -> None:
        self._reset()

    def process(self, state: MachineState, slot: InstrSlot) -> None:
        if slot.entry.phantom:
            return
        group = state.group
        assert group is not None
        # Group-level delays are debited once, on the group's first
        # retiring instruction.
        self.on_retire(group.fetch_cycle, slot.complete,
                       slot.retire_cycle, group.recovery,
                       group.fetch_extra, group.serialize, slot.penalized)
        group.recovery = 0
        group.serialize = 0
        group.fetch_extra = 0

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        if state is not None:   # an empty trace has no attribution
            result.attribution = self.finish(result.cycles)

    # -- the accounting core --------------------------------------------

    def on_retire(self, fetch: int, complete: int, retire: int,
                  recovery: int = 0, fetch_extra: int = 0,
                  serialize: int = 0,
                  bypass_penalized: bool = False) -> None:
        """Account the cycles up to and including *retire*.

        *recovery*, *fetch_extra* and *serialize* are the front-end
        delay decomposition of this instruction's fetch group: cycles
        its fetch was pushed back by mispredict redirect, by
        instruction-fetch latency (trace cache miss), and by
        serialization drain respectively — pass them on the group's
        first retiring instruction only. *bypass_penalized* marks an
        instruction whose last-arriving source paid the cross-cluster
        bypass penalty.
        """
        self._recovery_debt += recovery
        self._extra_debt += fetch_extra
        self._serialize_debt += serialize
        classes = self.classes
        extra_class = self._extra_class
        last = self._last_retire
        if retire <= last:      # shares an already-counted retire cycle
            return
        classes["base"] += 1    # the retire cycle itself is productive
        stalls_end = retire - 1
        # Cycles in (last, min(fetch, stalls_end)]: front-end bound.
        frontend = min(fetch, stalls_end) - last
        if frontend > 0:
            take = min(frontend, self._extra_debt)
            classes[extra_class] += take
            self._extra_debt -= take
            frontend -= take
            take = min(frontend, self._recovery_debt)
            classes["mispredict_recovery"] += take
            self._recovery_debt -= take
            frontend -= take
            take = min(frontend, self._serialize_debt)
            classes["drain"] += take
            self._serialize_debt -= take
            frontend -= take
            classes["fetch_starved"] += frontend
        # Cycles in (max(last, fetch), min(complete, stalls_end)]:
        # fetched but not yet complete — back-end bound. The pipeline
        # may be here *because* fetch restarted late (the delay hid
        # behind the previous group's retirement): settle those debts
        # before calling the remainder issue-bound.
        backend = min(complete, stalls_end) - max(last, fetch)
        if backend > 0:
            if bypass_penalized:
                take = min(backend, self.bypass_penalty)
                classes["bypass_delay"] += take
                backend -= take
            take = min(backend, self._recovery_debt)
            classes["mispredict_recovery"] += take
            self._recovery_debt -= take
            backend -= take
            take = min(backend, self._extra_debt)
            classes[extra_class] += take
            self._extra_debt -= take
            backend -= take
            take = min(backend, self._serialize_debt)
            classes["drain"] += take
            self._serialize_debt -= take
            backend -= take
            classes["issue_bound"] += backend
        # Cycles in (max(last, complete), stalls_end]: complete but
        # not retired — commit backpressure.
        drain = stalls_end - max(last, complete)
        if drain > 0:
            classes["drain"] += drain
        self._last_retire = retire

    def finish(self, cycles: int) -> Dict[str, int]:
        """The final attribution; raises if it does not partition
        *cycles* exactly (an accounting bug, never data-dependent)."""
        total = sum(self.classes.values())
        if total != cycles:
            raise ConfigError(
                f"cycle attribution lost cycles: classes sum to "
                f"{total}, run took {cycles}")
        return dict(self.classes)


__all__ = ["CycleAccountant"]
