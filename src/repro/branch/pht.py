"""Pattern history tables.

Each of the paper's three tables is "an array of saturating 2-bit
counters"; the indexing function is gshare-style (branch PC XOR global
history), a standard choice for MICRO-1998-era PHTs that the paper does
not further specify.
"""

from __future__ import annotations

from repro.branch.counters import SaturatingCounterArray


class PatternHistoryTable:
    """A 2-bit-counter PHT indexed by hashed (PC, global history)."""

    def __init__(self, entries: int, history_bits: int = 12) -> None:
        self.counters = SaturatingCounterArray(entries, bits=2)
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1

    def _index(self, pc: int, ghist: int) -> int:
        return (pc >> 2) ^ (ghist & self._history_mask)

    def predict(self, pc: int, ghist: int) -> bool:
        return self.counters.predict(self._index(pc, ghist))

    def update(self, pc: int, ghist: int, taken: bool) -> bool:
        """Train with the committed outcome; returns the prediction
        made before training."""
        return self.counters.update(self._index(pc, ghist), taken)


class GlobalHistory:
    """The global direction-history shift register shared by the PHTs."""

    def __init__(self, bits: int = 12) -> None:
        self.bits = bits
        self._mask = (1 << bits) - 1
        self.value = 0

    def push(self, taken: bool) -> None:
        self.value = ((self.value << 1) | int(taken)) & self._mask

    def reset(self) -> None:
        self.value = 0


__all__ = ["PatternHistoryTable", "GlobalHistory"]
