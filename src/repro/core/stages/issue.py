"""Issue stage: dataflow wakeup and clustered dispatch.

Computes when each source operand is visible to the consuming cluster
(charging the cross-cluster bypass penalty), then claims the issue
cycle on the entry's functional unit behind its reservation station.
Issue slot *k* of a fetch group feeds functional unit *k* — the
slot-wired datapath the placement optimization exploits. The stage
owns every functional unit's state.

The bypass rule: a value produced in another cluster arrives
``cross_cluster_penalty`` cycles late; a value produced in the same
cluster, or one that predates the window (architected state, no
producer), is available at its ready cycle.

NOPs (including branches squashed by predication) occupy
their trace cache slot but are never dispatched to a functional unit;
they complete here at their rename cycle.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.core.config import SimConfig
from repro.core.results import SimResult
from repro.core.stages.base import FetchEntry, MachineState, PipelineStage


class IssueStage(PipelineStage):
    """Source wakeup through the bypass network, then the issue claim
    on the entry's functional unit.

    Each functional unit is fully pipelined (one instruction per
    cycle) and fronted by a reservation station of ``rs_per_fu``
    entries. An RS entry is held from dispatch-into-RS until
    issue-to-execute. The replay model applies the capacity as an
    issue-time constraint: when the RS is full, the incoming
    instruction cannot begin execution before the earliest resident
    entry vacates. That entry is not retired early, so a stream that
    keeps the RS full can hold more than ``rs_per_fu`` entries at
    once.

    The stage keeps one set per FU: the issue cycles it has claimed.
    Rename is in order, so the claims after the current rename cycle
    are exactly the resident RS entries, and no claim at or before it
    can collide with a new one, which issues after its rename cycle.
    When a set reaches ``min(rs_per_fu, window_size)`` claims it is
    trimmed to the resident entries, so its size is bounded by the
    instructions in flight, not by the run.
    """

    name = "issue"

    def __init__(self, config: SimConfig) -> None:
        self.cluster_size = config.cluster_size
        self.penalty = config.cross_cluster_penalty
        self.rs_entries = config.rs_per_fu
        #: a claim set this large is trimmed to its resident entries
        self._trim_at = min(config.rs_per_fu, config.window_size)
        #: per functional unit: claimed issue cycles
        self._claims: List[Set[int]] = [set()
                                        for _ in range(config.num_fus)]
        #: operand deliveries that paid the cross-cluster penalty
        self.crossings = 0
        #: instructions whose last-arriving source paid the penalty
        self.bypass_delayed = 0
        #: dispatched instructions with at least one source operand
        self.exec_with_sources = 0

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

        ready = 0               # all operands (last-arriving source)
        data_ready = 0          # store-data path, joins in store queue
        last_penalized = False
        operands = decoded.operands
        if operands:
            reg_ready = state.reg_ready
            penalty = self.penalty
            penalizes = penalty != 0
            crossings = 0
            if decoded.is_store:
                # The address operands gate issue (AGEN); the data
                # operand joins later, in the store queue.
                dispatch_ready = 0
                for reg, is_data in operands:
                    effective, producer_cluster = reg_ready[reg]
                    penalized = False
                    if producer_cluster is not None \
                            and producer_cluster != cluster:
                        crossings += 1
                        effective += penalty
                        penalized = penalizes
                    if is_data:
                        if effective > data_ready:
                            data_ready = effective
                    elif effective > ready:
                        ready = effective
                    if effective > dispatch_ready:
                        dispatch_ready = effective
                        last_penalized = penalized
                    elif effective == dispatch_ready and penalized:
                        last_penalized = True
            else:
                # Only a store has a data operand, so every operand
                # gates issue.
                for reg, _ in operands:
                    effective, producer_cluster = reg_ready[reg]
                    if producer_cluster is None \
                            or producer_cluster == cluster:
                        if effective > ready:
                            ready = effective
                            last_penalized = False
                        continue
                    crossings += 1
                    effective += penalty
                    if effective > ready:
                        ready = effective
                        last_penalized = penalizes
                    elif effective == ready and penalizes:
                        last_penalized = True
            self.crossings += crossings
            self.exec_with_sources += 1
            if last_penalized:
                self.bypass_delayed += 1

        # Claim the issue cycle: the first free cycle of the FU at or
        # after ``renamed + 1``, *ready* and, with the RS full, the
        # earliest resident entry's release.
        if ready <= renamed:
            ready = renamed + 1
        claims = self._claims[fu]
        if len(claims) >= self._trim_at:
            claims = self._claims[fu] = {c for c in claims if c > renamed}
            if len(claims) >= self.rs_entries:
                first = min(claims)
                if first > ready:
                    ready = first
        cycle = ready
        while cycle in claims:
            cycle += 1
        claims.add(cycle)
        entry.exec_start = cycle
        entry.data_ready = data_ready
        entry.penalized = last_penalized

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        result.telemetry.update({
            "backend.bypass.cross_cluster": self.bypass_delayed,
            "backend.exec.with_sources": self.exec_with_sources,
            "backend.bypass.crossings": self.crossings,
        })


__all__ = ["IssueStage"]
