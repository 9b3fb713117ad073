"""The clustered execution backend.

16 universal functional units in four symmetric clusters of four.
Results forward back-to-back within a cluster; crossing clusters costs
an extra cycle through the operand bypass network — the latency the
placement optimization attacks (the issue stage applies it). Each FU
is fully pipelined (accepts one instruction per cycle) and fronted by
a 32-entry reservation station; :class:`FunctionalUnit` models the
pair, so issuing an instruction is one call.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import List, Set


class FunctionalUnit:
    """One slot-wired functional unit and the reservation station in
    front of it.

    Issue slot *k* of a fetch group feeds functional unit *k* (the
    paper's design point: placement moves the routing crossbar into the
    fill unit, so the issue path is slot-wired). The FU accepts at most
    one instruction per cycle.

    An RS entry is held from dispatch-into-RS until issue-to-execute.
    The replay model applies the capacity as an issue-time constraint:
    when the RS is full, the incoming instruction cannot begin
    execution before the earliest resident entry vacates. That entry
    is not retired early, so a stream that keeps the RS full can hold
    more than *rs_entries* release cycles at once.
    """

    __slots__ = ("rs_entries", "_busy", "_floor", "_release")

    def __init__(self, rs_entries: int) -> None:
        self.rs_entries = rs_entries
        #: claimed issue cycles
        self._busy: Set[int] = set()
        #: cycles below this are forgotten
        self._floor = 0
        #: min-heap of resident entries' release (issue) cycles
        self._release: List[int] = []

    def issue(self, renamed: int, ready: int) -> int:
        """Admit an instruction renamed at *renamed* whose operands are
        ready at *ready*; claim and return its issue cycle: the first
        free cycle of the FU at or after ``renamed + 1``, *ready* and,
        with the RS full, the earliest resident entry's release."""
        release = self._release
        while release and release[0] <= renamed:
            heappop(release)
        earliest = renamed + 1
        if ready > earliest:
            earliest = ready
        if len(release) >= self.rs_entries and release[0] > earliest:
            earliest = release[0]
        cycle = earliest if earliest > self._floor else self._floor
        busy = self._busy
        while cycle in busy:
            cycle += 1
        busy.add(cycle)
        if len(busy) > 4096:
            # Forget reservations far in the past (bounded memory).
            floor = cycle - 512
            self._busy = {c for c in busy if c >= floor}
            if floor > self._floor:
                self._floor = floor
        heappush(release, cycle)
        return cycle


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


__all__ = ["FunctionalUnit", "CheckpointStore"]
