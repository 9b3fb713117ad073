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
from repro.core.stages.base import FetchEntry, MachineState, PipelineStage


class ExecuteStage(PipelineStage):
    """Completion timing against the FUs and the memory scheduler."""

    name = "execute"

    def __init__(self, memsched: Any) -> None:
        self.memsched = memsched
        #: phantoms executed
        self.phantoms = 0

    def process(self, state: MachineState, entry: FetchEntry) -> None:
        if not entry.executed:
            decoded = entry.decoded
            if decoded.is_load:
                complete = self.memsched.load_timing(
                    entry.record.mem_addr, entry.exec_start + 1)
            elif decoded.is_store:
                complete = self.memsched.store_timing(
                    entry.record.mem_addr, entry.exec_start + 1,
                    entry.data_ready)
            else:
                complete = entry.exec_start + decoded.latency
            if decoded.dest is not None:
                state.reg_ready[decoded.dest] = (complete, entry.cluster)
            entry.complete = complete
            entry.executed = True
        if entry.phantom:
            self.phantoms += 1

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        l1d = self.memsched.hierarchy.l1d.stats
        result.telemetry.update({
            "predication.phantoms": self.phantoms,
            "mem.l1d.hits": l1d.hits,
            "mem.l1d.misses": l1d.misses,
            "mem.forwarded_loads": self.memsched.forwarded_loads,
        })


__all__ = ["ExecuteStage"]
