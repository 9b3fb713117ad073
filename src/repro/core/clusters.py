"""The clustered execution backend.

16 universal functional units in four symmetric clusters of four.
Results forward back-to-back within a cluster; crossing clusters costs
an extra cycle through the operand bypass network — the latency the
placement optimization attacks. Each FU is fully pipelined (accepts one
instruction per cycle) and fronted by a 32-entry reservation station.
"""

from __future__ import annotations

from collections import deque
import heapq
from typing import List, Optional, Set


class FunctionalUnits:
    """Issue-slot-to-FU pipeline occupancy.

    Issue slot *k* of a fetch group feeds functional unit *k* (the
    paper's design point: placement moves the routing crossbar into the
    fill unit, so the issue path is slot-wired). A FU accepts at most
    one instruction per cycle.
    """

    def __init__(self, num_fus: int) -> None:
        self.num_fus = num_fus
        self._busy: List[Set[int]] = [set() for _ in range(num_fus)]
        #: cycles below this are forgotten
        self._floor: List[int] = [0] * num_fus

    def reserve(self, fu: int, earliest: int) -> int:
        """Claim the first free issue cycle of *fu* at or after
        *earliest*; returns the claimed cycle."""
        busy = self._busy[fu]
        cycle = max(earliest, self._floor[fu])
        while cycle in busy:
            cycle += 1
        busy.add(cycle)
        if len(busy) > 4096:
            self._compact(fu, cycle)
        return cycle

    def _compact(self, fu: int, now: int) -> None:
        """Forget reservations far in the past (bounded memory)."""
        floor = now - 512
        self._busy[fu] = {c for c in self._busy[fu] if c >= floor}
        self._floor[fu] = max(self._floor[fu], floor)


class ReservationStations:
    """Per-FU RS occupancy.

    An entry is held from dispatch-into-RS until issue-to-execute. The
    replay model applies the capacity as an issue-time constraint: when
    the RS is full, the incoming instruction cannot begin execution
    before the earliest resident entry vacates.
    """

    def __init__(self, num_fus: int, entries_per_fu: int) -> None:
        self.entries_per_fu = entries_per_fu
        #: per-FU min-heaps of release cycles
        self._release: List[List[int]] = [[] for _ in range(num_fus)]

    def admit(self, fu: int, enter: int) -> int:
        """Earliest cycle an instruction entering FU *fu*'s RS at
        *enter* may dispatch, considering only RS capacity."""
        heap = self._release[fu]
        while heap and heap[0] <= enter:
            heapq.heappop(heap)
        if len(heap) >= self.entries_per_fu:
            return heap[0]
        return enter

    def occupy(self, fu: int, until: int) -> None:
        """Record an entry resident until *until* (its dispatch cycle)."""
        heapq.heappush(self._release[fu], until)


class BypassNetwork:
    """Operand availability across the cluster bypass network."""

    def __init__(self, cluster_size: int, penalty: int) -> None:
        self.cluster_size = cluster_size
        self.penalty = penalty
        #: operand deliveries that paid the cross-cluster penalty
        self.crossings = 0

    def cluster_of_slot(self, slot: int) -> int:
        return slot // self.cluster_size

    def effective_ready(self, ready: int, producer_cluster: Optional[int],
                        consumer_cluster: int) -> int:
        """When a value produced at *ready* in *producer_cluster* can be
        consumed in *consumer_cluster*.

        ``producer_cluster is None`` means the value predates the
        window (architected state): available everywhere.
        """
        if producer_cluster is None or producer_cluster == consumer_cluster:
            return ready
        self.crossings += 1
        return ready + self.penalty


class CheckpointStore:
    """Checkpoint-repair storage (Hwu & Patt).

    Every conditional branch holds a checkpoint from rename until it
    resolves; with all checkpoints live, the next branch stalls in
    rename until the oldest outstanding branch completes. Resolution is
    in program order here because branches complete monotonically per
    the replay's in-order processing of rename — out-of-order resolve
    would only ever free checkpoints earlier, so this bound is
    conservative in the right direction.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._outstanding: "deque[int]" = deque()
        self._last_free = 0
        #: acquisitions delayed by a full store
        self.stalls = 0

    def acquire(self, rename_cycle: int) -> int:
        """Earliest cycle a new branch may rename, given checkpoint
        availability; frees checkpoints resolved by then."""
        while self._outstanding and self._outstanding[0] <= rename_cycle:
            self._outstanding.popleft()
        if len(self._outstanding) >= self.capacity:
            freed_at = self._outstanding.popleft()
            self.stalls += 1
            while self._outstanding and self._outstanding[0] <= freed_at:
                self._outstanding.popleft()
            return max(rename_cycle, freed_at)
        return rename_cycle

    def commit(self, resolve_cycle: int) -> None:
        """Record the branch's checkpoint as held until *resolve_cycle*.

        Checkpoints reclaim in allocation order (a circular buffer), so
        a checkpoint cannot free before its predecessors.
        """
        self._last_free = max(self._last_free, resolve_cycle)
        self._outstanding.append(self._last_free)


__all__ = ["FunctionalUnits", "ReservationStations", "BypassNetwork",
           "CheckpointStore"]
