"""Checkpoint-repair storage for the rename and retire stages.

The clustered backend itself (16 universal functional units in four
clusters of four, each behind a 32-entry reservation station, with
the cross-cluster bypass penalty) is the issue stage's state; see
:class:`~repro.core.stages.issue.IssueStage`.
"""

from __future__ import annotations

from collections import deque


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


__all__ = ["CheckpointStore"]
