"""The bias table driving branch promotion.

Branch promotion (Patel et al., ISCA 1998) dynamically identifies
conditional branches that have gone the same direction for N
consecutive executions (the paper sets N = 64) and *promotes* them:
trace segments embed a static prediction for them, and they stop
consuming one of the three dynamic-prediction slots.

Each entry tracks, per branch address: the last observed direction, the
current run length of consecutive same-direction outcomes, and whether
the branch is currently promoted. A promoted branch that breaks its
bias is demoted and its run restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError

PROMOTE_THRESHOLD = 64


@dataclass
class _BiasEntry:
    direction: bool = False
    run: int = 0
    promoted: bool = False


class BiasTable:
    """Direct-mapped, tagless bias table (8K entries in the paper's
    32KB-predictor budget).

    Being tagless, distinct branches may alias an entry; that mirrors
    the hardware cost constraint rather than idealizing it. Entries are
    created on the first recorded outcome at their index; an untouched
    index reads as direction False, run 0, not promoted.
    """

    def __init__(self, entries: int = 8192,
                 threshold: int = PROMOTE_THRESHOLD) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError(f"entry count {entries} must be a power of two")
        if threshold < 1:
            raise ConfigError("promotion threshold must be positive")
        self.entries = entries
        self.threshold = threshold
        self._mask = entries - 1
        self._table: List[Optional[_BiasEntry]] = [None] * entries
        self.promotions = 0
        self.demotions = 0

    def record(self, pc: int, taken: bool) -> None:
        """Record a committed outcome for the branch at *pc*."""
        index = (pc >> 2) & self._mask
        entry = self._table[index]
        if entry is None:
            entry = self._table[index] = _BiasEntry()
        if entry.run and taken == entry.direction:
            entry.run += 1
            if not entry.promoted and entry.run >= self.threshold:
                entry.promoted = True
                self.promotions += 1
        else:
            if entry.promoted:
                entry.promoted = False
                self.demotions += 1
            entry.direction = taken
            entry.run = 1
            if entry.run >= self.threshold:   # degenerate threshold of 1
                entry.promoted = True
                self.promotions += 1

    def is_promoted(self, pc: int) -> bool:
        entry = self._table[(pc >> 2) & self._mask]
        return entry is not None and entry.promoted

    def promoted_direction(self, pc: int) -> bool:
        """Static direction for a promoted branch (undefined for an
        unpromoted one; callers must check :meth:`is_promoted`)."""
        entry = self._table[(pc >> 2) & self._mask]
        return entry is not None and entry.direction

    def reset(self) -> None:
        self._table = [None] * self.entries
        self.promotions = 0
        self.demotions = 0


__all__ = ["BiasTable", "PROMOTE_THRESHOLD"]
