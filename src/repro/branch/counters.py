"""Saturating counter arrays, the substrate of every predictor table."""

from __future__ import annotations

from repro.errors import ConfigError


class SaturatingCounterArray:
    """An array of n-bit saturating up/down counters.

    Counters start at the weak side of the taken threshold (the usual
    "weakly taken" initialization for 2-bit counters). They live in one
    ``bytearray``, a byte per counter, so a counter is at most 8 bits.
    """

    def __init__(self, entries: int, bits: int = 2) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError(f"entry count {entries} must be a power of two")
        if not 1 <= bits <= 8:
            raise ConfigError(
                f"counters are 1 to 8 bits wide, got {bits}")
        self.entries = entries
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.threshold = 1 << (bits - 1)
        self._counters = bytearray([self.threshold]) * entries
        self._mask = entries - 1

    def index(self, key: int) -> int:
        """Fold an arbitrary key into a table index."""
        return key & self._mask

    def value(self, key: int) -> int:
        return self._counters[key & self._mask]

    def predict(self, key: int) -> bool:
        """Counter's current direction prediction (taken when at or
        above the midpoint)."""
        return self._counters[key & self._mask] >= self.threshold

    def update(self, key: int, taken: bool) -> bool:
        """Train toward the observed outcome; returns the prediction
        made before training (what :meth:`predict` returned)."""
        idx = key & self._mask
        value = self._counters[idx]
        if taken:
            if value < self.max_value:
                self._counters[idx] = value + 1
        elif value > 0:
            self._counters[idx] = value - 1
        return value >= self.threshold

    def reset(self) -> None:
        self._counters = bytearray([self.threshold]) * self.entries


__all__ = ["SaturatingCounterArray"]
