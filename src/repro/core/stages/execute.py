"""Execute stage: completion timing and dataflow writeback.

ALU operations complete at their issue cycle plus latency; loads and
stores route through the memory scheduler (no load hoists past a store
with an unknown address; store-to-load forwarding within a bounded
window). The destination's availability — cycle and producing cluster
— is published to the dataflow scoreboard here.

Phantoms (predicated instructions whose guard failed on the actual
path) execute like any instruction, architecturally writing back their
old destination value, but are counted here and consume no committed
record downstream.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.results import SimResult
from repro.core.stages.base import (
    InstrSlot,
    MachineState,
    MetricBlock,
    PipelineStage,
)
from repro.telemetry.registry import TelemetryRegistry

_SCOPES = {
    "phantoms": "predication.phantoms",
}


class ExecuteStage(PipelineStage):
    """Completion timing against the FUs and the memory scheduler."""

    name = "execute"

    def __init__(self, memsched: Any,
                 registry: TelemetryRegistry) -> None:
        self.memsched = memsched
        self._m = m = MetricBlock(registry, _SCOPES)
        self._phantoms = m.phantoms
        self._registry = registry

    def process(self, state: MachineState, slot: InstrSlot) -> None:
        entry = slot.entry
        if not slot.executed:
            decoded = entry.decoded
            if decoded.is_load:
                complete = self.memsched.load_timing(
                    entry.record.mem_addr, slot.exec_start + 1)
            elif decoded.is_store:
                complete = self.memsched.store_timing(
                    entry.record.mem_addr, slot.exec_start + 1,
                    slot.data_ready)
            else:
                complete = slot.exec_start + decoded.latency
            if decoded.dest is not None:
                state.reg_ready[decoded.dest] = (complete, slot.cluster)
            slot.complete = complete
            slot.executed = True
        if entry.phantom:
            self._phantoms.value += 1

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        result.predication_phantoms = self._m.delta("phantoms")
        hierarchy = self.memsched.hierarchy
        result.dcache_hits = hierarchy.l1d.stats.hits
        result.dcache_misses = hierarchy.l1d.stats.misses
        result.forwarded_loads = self.memsched.forwarded_loads
        registry = self._registry
        registry.counter("mem.l1d.hits").add(result.dcache_hits)
        registry.counter("mem.l1d.misses").add(result.dcache_misses)
        registry.counter("mem.forwarded_loads").add(
            result.forwarded_loads)


__all__ = ["ExecuteStage"]
