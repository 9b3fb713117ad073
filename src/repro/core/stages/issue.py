"""Issue stage: dataflow wakeup and clustered dispatch.

Computes when each source operand is visible to the consuming cluster
(charging the cross-cluster bypass penalty), applies the reservation
station capacity bound, and claims the functional-unit issue cycle.
Issue slot *k* of a fetch group feeds functional unit *k* — the
slot-wired datapath the placement optimization exploits.

NOPs (including instructions squashed by dead-code elimination) occupy
their trace cache slot but are never dispatched to a functional unit;
they complete here at their rename cycle.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import SimConfig
from repro.core.results import SimResult
from repro.core.stages.base import (
    InstrSlot,
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
    """Source wakeup, RS admission and FU reservation."""

    name = "issue"

    def __init__(self, config: SimConfig, fus: Any, rs: Any,
                 bypass: Any, registry: TelemetryRegistry) -> None:
        self.fus = fus
        self.rs = rs
        self.bypass = bypass
        self.cluster_size = config.cluster_size
        self.penalty = bypass.penalty
        self._m = m = MetricBlock(registry, _SCOPES)
        self._bypass_delayed = m.bypass_delayed
        self._exec_with_sources = m.exec_with_sources
        self._registry = registry

    def process(self, state: MachineState, slot: InstrSlot) -> None:
        if slot.executed:
            return              # completed in rename (marked move)
        entry = slot.entry
        decoded = entry.decoded
        renamed = slot.renamed
        if decoded.is_nop:
            slot.complete = renamed
            slot.penalized = False
            slot.executed = True
            return
        fu = entry.slot
        cluster = fu // self.cluster_size
        slot.cluster = cluster

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
                # The bypass network: a value produced in another
                # cluster arrives ``penalty`` cycles late; values that
                # predate the window (no producer) are everywhere.
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
            self.bypass.crossings += crossings
            self._exec_with_sources.value += 1
            if last_penalized:
                self._bypass_delayed.value += 1

        rs = self.rs
        rs_free = rs.admit(fu, renamed)
        earliest = max(renamed + 1,
                       agen_ready if decoded.is_store else dispatch_ready,
                       rs_free)
        exec_start = self.fus.reserve(fu, earliest)
        rs.occupy(fu, exec_start)
        slot.exec_start = exec_start
        slot.data_ready = data_ready
        slot.penalized = last_penalized

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        result.bypass_delayed = self._m.delta("bypass_delayed")
        result.executed_with_sources = self._m.delta("exec_with_sources")
        self._registry.counter("backend.bypass.crossings").add(
            self.bypass.crossings)


__all__ = ["IssueStage"]
