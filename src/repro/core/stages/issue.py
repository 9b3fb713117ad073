"""Issue stage: dataflow wakeup and clustered dispatch.

Computes when each source operand is visible to the consuming cluster
(charging the cross-cluster bypass penalty), then hands the entry to
its functional unit, which applies the reservation station capacity
bound and claims the issue cycle in one call. Issue slot *k* of a
fetch group feeds functional unit *k* — the slot-wired datapath the
placement optimization exploits.

The bypass rule: a value produced in another cluster arrives
``cross_cluster_penalty`` cycles late; a value produced in the same
cluster, or one that predates the window (architected state, no
producer), is available at its ready cycle.

NOPs (including instructions squashed by dead-code elimination) occupy
their trace cache slot but are never dispatched to a functional unit;
they complete here at their rename cycle.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.clusters import FunctionalUnit
from repro.core.config import SimConfig
from repro.core.results import SimResult
from repro.core.stages.base import (
    FetchEntry,
    MachineState,
    MetricBlock,
    PipelineStage,
)
from repro.telemetry.registry import TelemetryRegistry

_SCOPES = {
    "bypass_delayed": "backend.bypass.cross_cluster",
    "exec_with_sources": "backend.exec.with_sources",
}


class IssueStage(PipelineStage):
    """Source wakeup through the bypass network, then one issue call
    into the entry's functional unit."""

    name = "issue"

    def __init__(self, config: SimConfig, fus: List[FunctionalUnit],
                 registry: TelemetryRegistry) -> None:
        self.fus = fus
        self.cluster_size = config.cluster_size
        self.penalty = config.cross_cluster_penalty
        #: operand deliveries that paid the cross-cluster penalty
        self.crossings = 0
        self._m = m = MetricBlock(registry, _SCOPES)
        self._bypass_delayed = m.bypass_delayed
        self._exec_with_sources = m.exec_with_sources
        self._registry = registry

    def process(self, state: MachineState, entry: FetchEntry) -> None:
        if entry.executed:
            return              # completed in rename (marked move)
        decoded = entry.decoded
        renamed = entry.renamed
        if decoded.is_nop:
            entry.complete = renamed
            entry.penalized = False
            entry.executed = True
            return
        fu = entry.slot
        cluster = fu // self.cluster_size
        entry.cluster = cluster

        dispatch_ready = 0      # all operands (last-arriving source)
        agen_ready = 0          # address operands only (store AGEN)
        data_ready = 0          # store-data path, joins in store queue
        last_penalized = False
        operands = decoded.operands
        if operands:
            reg_ready = state.reg_ready
            penalty = self.penalty
            crossings = 0
            for reg, is_data in operands:
                ready, producer_cluster = reg_ready[reg]
                if producer_cluster is None \
                        or producer_cluster == cluster:
                    effective = ready
                    penalized = False
                else:
                    crossings += 1
                    effective = ready + penalty
                    penalized = effective != ready
                if is_data:
                    if effective > data_ready:
                        data_ready = effective
                elif effective > agen_ready:
                    agen_ready = effective
                if effective > dispatch_ready:
                    dispatch_ready = effective
                    last_penalized = penalized
                elif effective == dispatch_ready and penalized:
                    last_penalized = True
            self.crossings += crossings
            self._exec_with_sources.value += 1
            if last_penalized:
                self._bypass_delayed.value += 1

        entry.exec_start = self.fus[fu].issue(
            renamed, agen_ready if decoded.is_store else dispatch_ready)
        entry.data_ready = data_ready
        entry.penalized = last_penalized

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        result.bypass_delayed = self._m.delta("bypass_delayed")
        result.executed_with_sources = self._m.delta("exec_with_sources")
        self._registry.counter("backend.bypass.crossings").add(
            self.crossings)


__all__ = ["IssueStage"]
