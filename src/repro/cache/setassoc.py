"""Generic set-associative cache with pluggable replacement.

This is a *presence* model: it tracks which lines are resident (for hit
and miss accounting and latency), not their contents — data values come
from the functional memory. That is exactly what a trace-driven timing
simulator needs from its caches.

Replacement is delegated to a :class:`~repro.cache.policy.
ReplacementPolicy`; the default ``"lru"`` policy reproduces the seed
behaviour bit for bit (victim = oldest entry of the insertion-ordered
set dict).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, Tuple

from repro.cache.policy import ReplacementPolicy, make_policy
from repro.errors import ConfigError


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def check_geometry(name: str, size_bytes: int, assoc: int,
                   line_size: int) -> int:
    """The set count of a *size_bytes* cache of *assoc* ways of
    *line_size*-byte lines.

    Raises:
        ConfigError: unless the line size, the associativity and the
            set count are powers of two and the size is a whole number
            of sets.
    """
    if not (_is_pow2(line_size) and _is_pow2(assoc)):
        raise ConfigError(f"{name}: line size and associativity must "
                          f"be powers of two")
    if size_bytes % (assoc * line_size):
        raise ConfigError(f"{name}: size {size_bytes} not divisible by "
                          f"assoc*line ({assoc}x{line_size})")
    num_sets = size_bytes // (assoc * line_size)
    if not _is_pow2(num_sets):
        raise ConfigError(f"{name}: set count {num_sets} "
                          f"must be a power of two")
    return num_sets


@dataclass
class CacheStats:
    """Hit, miss and eviction counters."""

    accesses: int = 0
    hits: int = 0
    evictions: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.evictions = 0


class SetAssocCache:
    """A set-associative cache keyed by byte address.

    Recency is maintained per set via insertion-ordered dicts
    (move-to-end on hit), which is both exact and fast in CPython; the
    replacement policy picks victims on top of that order and may keep
    metadata of its own.
    """

    def __init__(self, size_bytes: int, assoc: int, line_size: int,
                 name: str = "cache", policy: str = "lru") -> None:
        self.num_sets = check_geometry(name, size_bytes, assoc, line_size)
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # set index -> {tag: None}, insertion order == recency order;
        # a set's dict is created the first time the set is touched.
        self._sets: DefaultDict[int, Dict[int, None]] = defaultdict(dict)
        #: victim selection and its per-set metadata
        self.policy: ReplacementPolicy = make_policy(policy, self.num_sets)
        #: the policy's hit and install hooks, or None where it keeps
        #: the base class's no-op (decided once: they run per access)
        self._on_hit = (self.policy.on_hit
                        if self.policy.overrides("on_hit") else None)
        self._on_insert = (self.policy.on_insert
                           if self.policy.overrides("on_insert") else None)
        #: hit/access/eviction counters
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    def _locate(self, addr: int) -> Tuple[Dict[int, None], int, int]:
        line = addr >> self._line_shift
        index = line & self._set_mask
        return self._sets[index], line, index

    def probe(self, addr: int) -> bool:
        """Non-allocating lookup; does not update recency or stats."""
        entries, tag, _ = self._locate(addr)
        return tag in entries

    def access(self, addr: int) -> bool:
        """Reference *addr*: returns hit/miss, allocating on miss.

        On a miss the line is filled (the latency of doing so is the
        caller's concern) and the policy's victim in the set is
        evicted.
        """
        tag = addr >> self._line_shift
        index = tag & self._set_mask
        entries = self._sets[index]
        stats = self.stats
        stats.accesses += 1
        if tag in entries:
            stats.hits += 1
            entries[tag] = entries.pop(tag)  # move to MRU position
            if self._on_hit is not None:
                self._on_hit(index, tag)
            return True
        if len(entries) >= self.assoc:
            victim = self.policy.victim(index, entries)
            entries.pop(victim)
            self.policy.on_evict(index, victim)
            stats.evictions += 1
        entries[tag] = None
        if self._on_insert is not None:
            self._on_insert(index, tag)
        return False

    def fill(self, addr: int) -> None:
        """Install the line containing *addr* without counting an access."""
        tag = addr >> self._line_shift
        index = tag & self._set_mask
        entries = self._sets[index]
        if tag in entries:
            entries[tag] = entries.pop(tag)
            if self._on_hit is not None:
                self._on_hit(index, tag)
            return
        if len(entries) >= self.assoc:
            victim = self.policy.victim(index, entries)
            entries.pop(victim)
            self.policy.on_evict(index, victim)
            self.stats.evictions += 1
        entries[tag] = None
        if self._on_insert is not None:
            self._on_insert(index, tag)

    def invalidate(self, addr: int) -> bool:
        """Drop the line containing *addr*; returns whether it was present."""
        entries, tag, index = self._locate(addr)
        if tag not in entries:
            return False
        entries.pop(tag)
        self.policy.on_evict(index, tag)
        return True

    def flush(self) -> None:
        """Empty the cache (stats retained)."""
        for entries in self._sets.values():
            entries.clear()
        self.policy.on_flush()

    def resident_lines(self) -> int:
        return sum(len(entries) for entries in self._sets.values())

    def __repr__(self) -> str:
        return (f"SetAssocCache({self.name}: {self.size_bytes}B, "
                f"{self.assoc}-way, {self.line_size}B lines, "
                f"{self.policy.name})")


__all__ = ["SetAssocCache", "CacheStats", "check_geometry"]
