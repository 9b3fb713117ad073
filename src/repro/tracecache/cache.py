"""The trace cache structure.

The paper's configuration: 2K lines, 4-way set associative, indexed by
fetch address; each line holds one :class:`TraceSegment` (up to 16
instructions plus 7 pre-decode bits each — about 156KB of storage).

Two fidelity details matter a great deal in practice and are modelled:

* **Time-aware fills.** A segment inserted at cycle ``t`` with fill
  latency ``L`` is not visible to lookups before ``t + L`` — how the
  fill-pipeline-latency experiments (Figure 8) are modelled.
* **Path associativity.** Ways within a set may hold *different paths
  from the same fetch address* (e.g. a loop body's steady-state path
  and its exit path). Lookup disambiguates with the branch predictor:
  among resident same-address segments it prefers the one whose first
  embedded conditional-branch direction agrees with the predicted
  direction, falling back to the most recently used. Without this,
  loop-exit segments continually evict their hot steady-state twins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache.policy import (
    POLICY_NAMES,
    ReplacementPolicy,
    make_policy,
)
from repro.errors import ConfigError
from repro.tracecache.segment import TraceSegment


@dataclass
class TraceCacheConfig:
    """Geometry and replacement policy of the trace cache."""

    num_sets: int = 512
    assoc: int = 4
    max_instrs: int = 16
    max_cond_branches: int = 3
    policy: str = "lru"

    def __post_init__(self) -> None:
        if self.num_sets <= 0 or self.num_sets & (self.num_sets - 1):
            raise ConfigError("trace cache set count must be a power of two")
        if self.assoc < 1:
            raise ConfigError("trace cache associativity must be >= 1")
        if self.policy not in POLICY_NAMES:
            raise ConfigError(
                f"unknown trace cache replacement policy "
                f"{self.policy!r}; expected one of "
                f"{', '.join(POLICY_NAMES)}")

    @property
    def num_lines(self) -> int:
        return self.num_sets * self.assoc


@dataclass
class TraceCacheStats:
    lookups: int = 0
    hits: int = 0
    fills: int = 0
    refreshes: int = 0        # identical segment already resident
    multipath_hits: int = 0   # several same-address candidates resident
    evictions: int = 0        # capacity evictions (policy victims)
    dead_evictions: int = 0   # evicted without a single lookup hit

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class TraceCache:
    """Set-associative storage of trace segments, pluggable
    replacement, path-associative lookup."""

    def __init__(self,
                 config: Optional[TraceCacheConfig] = None) -> None:
        self.config = config if config is not None else TraceCacheConfig()
        self._set_mask = self.config.num_sets - 1
        # set index -> {(start_pc, path_key): TraceSegment},
        # insertion order == recency order.
        self._sets: List[Dict[Tuple[int, tuple], TraceSegment]] = [
            dict() for _ in range(self.config.num_sets)]
        #: victim selection + metadata (TRRIP reuse history etc.)
        self.policy: ReplacementPolicy = make_policy(
            self.config.policy, self.config.num_sets)
        self.stats = TraceCacheStats()
        #: (start_pc, path_key) -> lookup hits since its last fill
        #: (dead-eviction accounting).
        self._seg_hits: Dict[Tuple[int, tuple], int] = {}
        #: the ``line_displaced`` hook chain, set by the engine per run
        #: (see :class:`~repro.core.stages.base.PipelineStage`).
        self.displace_hooks: Tuple[Callable[..., Any], ...] = ()

    def _index_for(self, pc: int) -> int:
        return (pc >> 2) & self._set_mask

    def _set_for(self, pc: int) -> Dict[Tuple[int, tuple],
                                        TraceSegment]:
        return self._sets[self._index_for(pc)]

    # ------------------------------------------------------------------

    def lookup(self, pc: int, now: int,
               chooser: Optional[Callable] = None
               ) -> Optional[TraceSegment]:
        """Return a segment starting at *pc* that is resident and
        already filled by cycle *now*, else ``None``.

        When several paths from *pc* are resident, *chooser* (a
        ``segment -> score`` callable; higher is better, <= 0 means the
        predictor disagrees with the path) selects among them; most
        recently used wins ties.
        """
        self.stats.lookups += 1
        entries = self._set_for(pc)
        candidates = [key for key, seg in entries.items()
                      if key[0] == pc and seg.fill_cycle <= now]
        if not candidates:
            return None
        if len(candidates) > 1:
            self.stats.multipath_hits += 1
            if chooser is not None:
                scored = [(chooser(entries[key]), key)
                          for key in candidates]
                best = max(score for score, _ in scored)
                if best > 0:
                    candidates = [key for score, key in scored
                                  if score == best]
        key = candidates[-1]            # most recently used best path
        segment = entries.pop(key)
        entries[key] = segment          # recency touch
        self.policy.on_hit(self._index_for(pc), key)
        self.stats.hits += 1
        self._seg_hits[key] = self._seg_hits.get(key, 0) + 1
        return segment

    def probe(self, pc: int, path_key: Optional[tuple] = None
              ) -> Optional[TraceSegment]:
        """Non-stats, non-recency lookup.

        With *path_key*, the exact segment; without, the most recently
        used resident segment starting at *pc* — the same tie-break
        :meth:`lookup` applies among equally-scored candidates (tests,
        diagnostics).
        """
        entries = self._set_for(pc)
        if path_key is not None:
            return entries.get((pc, path_key))
        for key in reversed(entries):
            if key[0] == pc:
                return entries[key]
        return None

    def touch(self, pc: int, path_key: tuple) -> None:
        """Refresh LRU for one exact segment (fill-unit dedup path:
        rebuilding an identical resident segment keeps it hot)."""
        entries = self._set_for(pc)
        key = (pc, path_key)
        if key in entries:
            entries[key] = entries.pop(key)
            self.policy.on_hit(self._index_for(pc), key)
            self.stats.refreshes += 1

    def insert(self, segment: TraceSegment, now: int,
               fill_latency: int = 0) -> None:
        """Install *segment*, visible from ``now + fill_latency``.

        An identical resident segment is refreshed rather than
        re-filled; a different path from the same address takes its own
        way (path associativity), evicting the set's LRU entry if full.
        """
        segment.validate(self.config.max_instrs,
                         self.config.max_cond_branches)
        index = self._index_for(segment.start_pc)
        entries = self._sets[index]
        key = (segment.start_pc, segment.path_key)
        if key in entries:
            # Same path resident: replace its content (e.g. the branch
            # promotion state or annotations changed) with a fresh
            # fill. The policy sees a generation boundary (evict +
            # insert) so TRRIP's reuse history closes the old life,
            # but it is not a capacity eviction — stats stay quiet.
            entries.pop(key)
            self.policy.on_evict(index, key)
            for hook in self.displace_hooks:
                hook(key, now, segment, False)
        elif len(entries) >= self.config.assoc:
            victim_key = self.policy.victim(index, entries)
            entries.pop(victim_key)
            self.policy.on_evict(index, victim_key)
            self.stats.evictions += 1
            if self._seg_hits.pop(victim_key, 0) == 0:
                self.stats.dead_evictions += 1
            for hook in self.displace_hooks:
                hook(victim_key, now, segment, True)
        segment.fill_cycle = now + fill_latency
        entries[key] = segment
        self.policy.on_insert(index, key)
        self._seg_hits[key] = 0
        self.stats.fills += 1

    def resident_segments(self) -> int:
        return sum(len(entries) for entries in self._sets)


__all__ = ["TraceCache", "TraceCacheConfig", "TraceCacheStats"]
