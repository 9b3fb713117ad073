"""Rename-stage bookkeeping.

In-order rename with three structural limits: issue width (16/cycle),
checkpoints (3 conditional-branch-delimited blocks/cycle, checkpoint
repair), and the in-flight window (rename of instruction *k* waits
until instruction *k - window* has retired).

Marked register moves rename like any instruction (they consume decode
and rename bandwidth) but complete *inside* this stage: the destination
mapping is copied from the source mapping, so no reservation station or
functional unit is involved — the paper's §4.2 mechanism.
"""

from __future__ import annotations


class RenameUnit:
    """Assigns each instruction its rename cycle, in program order."""

    def __init__(self, issue_width: int, max_blocks_per_cycle: int,
                 window_size: int) -> None:
        self.issue_width = issue_width
        self.max_blocks = max_blocks_per_cycle
        self.window_size = window_size
        self._cycle = 0
        self._count = 0
        self._blocks = 0
        #: the three stall taxonomies
        self.window_stalls = 0
        self.block_limit_stalls = 0
        self.width_stalls = 0

    def rename(self, fetch_cycle: int, is_block_end: bool,
               window_release: int, not_before: int = 0) -> int:
        """Rename cycle for the next instruction in program order.

        *window_release* is the retire cycle of the instruction that
        must leave the window first (0 when the window is not full);
        *not_before* adds an external structural constraint (e.g. a
        free checkpoint).
        """
        earliest = fetch_cycle + 1
        if window_release + 1 > earliest:
            earliest = window_release + 1
            self.window_stalls += 1
        if not_before > earliest:
            earliest = not_before
        if earliest > self._cycle:
            self._cycle = earliest
            self._count = 0
            self._blocks = 0
        while (self._count >= self.issue_width
               or (is_block_end and self._blocks >= self.max_blocks)):
            if is_block_end and self._blocks >= self.max_blocks:
                self.block_limit_stalls += 1
            else:
                self.width_stalls += 1
            self._cycle += 1
            self._count = 0
            self._blocks = 0
        self._count += 1
        if is_block_end:
            self._blocks += 1
        return self._cycle


class RetireUnit:
    """In-order retirement, bounded by retire width."""

    def __init__(self, retire_width: int) -> None:
        self.retire_width = retire_width
        self._cycle = 0
        self._count = 0

    def retire(self, complete_cycle: int) -> int:
        """Retire cycle for the next instruction in program order,
        given it completed execution at *complete_cycle*."""
        earliest = complete_cycle + 1
        if earliest > self._cycle:
            self._cycle = earliest
            self._count = 0
        elif self._count >= self.retire_width:
            self._cycle += 1
            self._count = 0
        self._count += 1
        return self._cycle


__all__ = ["RenameUnit", "RetireUnit"]
