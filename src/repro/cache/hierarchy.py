"""The paper's memory hierarchy.

* 4KB 4-way supporting instruction cache,
* 64KB 4-way L1 data cache (one-cycle load latency after AGEN),
* 1MB unified L2 with a 6-cycle latency on L1 misses,
* 50 additional cycles for L2 misses serviced from memory.

Latency accounting returns the number of cycles *beyond* the L1 access
that an access costs; the pipeline model adds its own L1/AGEN cycles.
Bus contention is not modelled (the paper's 50-cycle figure is also the
uncontended number).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache.policy import POLICY_NAMES
from repro.cache.setassoc import SetAssocCache, check_geometry
from repro.configcheck import check_field_types
from repro.errors import ConfigError


@dataclass
class HierarchyConfig:
    """Sizes, latencies and replacement policy for the hierarchy."""

    l1i_size: int = 4 * 1024
    l1i_assoc: int = 4
    l1i_line: int = 32
    l1d_size: int = 64 * 1024
    l1d_assoc: int = 4
    l1d_line: int = 32
    l2_size: int = 1024 * 1024
    l2_assoc: int = 8
    l2_line: int = 64
    l2_latency: int = 6
    memory_latency: int = 50
    #: replacement policy for all three caches (see repro.cache.policy).
    policy: str = "lru"

    def __post_init__(self) -> None:
        check_field_types(self)
        for level in ("l1i", "l1d", "l2"):
            check_geometry(level.upper(), getattr(self, f"{level}_size"),
                           getattr(self, f"{level}_assoc"),
                           getattr(self, f"{level}_line"))
        for name in ("l2_latency", "memory_latency"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be at least 0, got {getattr(self, name)}")
        if self.policy not in POLICY_NAMES:
            raise ConfigError(
                f"unknown hierarchy replacement policy {self.policy!r}; "
                f"expected one of {', '.join(POLICY_NAMES)}")


class MemoryHierarchy:
    """L1I + L1D backed by a unified L2 backed by memory."""

    def __init__(self, config: Optional[HierarchyConfig] = None) -> None:
        self.config = config if config is not None else HierarchyConfig()
        cfg = self.config
        self.l1i = SetAssocCache(cfg.l1i_size, cfg.l1i_assoc, cfg.l1i_line,
                                 "L1I", cfg.policy)
        self.l1d = SetAssocCache(cfg.l1d_size, cfg.l1d_assoc, cfg.l1d_line,
                                 "L1D", cfg.policy)
        self.l2 = SetAssocCache(cfg.l2_size, cfg.l2_assoc, cfg.l2_line,
                                "L2", cfg.policy)

    # ------------------------------------------------------------------

    def _miss_penalty(self, addr: int) -> int:
        """Penalty for an L1 miss: L2 hit or full memory trip."""
        if self.l2.access(addr):
            return self.config.l2_latency
        return self.config.l2_latency + self.config.memory_latency

    def fetch_instr(self, addr: int) -> int:
        """Instruction fetch at *addr*: extra cycles beyond the L1I access
        (0 on an L1I hit)."""
        if self.l1i.access(addr):
            return 0
        return self._miss_penalty(addr)

    def load(self, addr: int) -> int:
        """Data load at *addr*: extra cycles beyond the 1-cycle L1D
        access (0 on an L1D hit)."""
        if self.l1d.access(addr):
            return 0
        return self._miss_penalty(addr)

    def store(self, addr: int) -> None:
        """Data store at *addr*.

        Stores retire through a store buffer and do not stall the
        pipeline in this model; the reference still updates L1D/L2
        residency (write-allocate) so later loads see the lines.
        """
        if not self.l1d.access(addr):
            self.l2.access(addr)

    def stats_summary(self) -> Dict[str, Tuple[int, int]]:
        return {
            "l1i": (self.l1i.stats.hits, self.l1i.stats.misses),
            "l1d": (self.l1d.stats.hits, self.l1d.stats.misses),
            "l2": (self.l2.stats.hits, self.l2.stats.misses),
        }


__all__ = ["MemoryHierarchy", "HierarchyConfig"]
