"""Memory scheduler.

The paper's rule: "The memory scheduler waits for addresses to be
generated before scheduling memory operations. No memory operation can
bypass a store with an unknown address." The replay model tracks the
running maximum of store address-generation completion times; a load
may not access the cache before every earlier store's address is known.

Store-to-load forwarding is modelled at word granularity within a
bounded window: a load hitting a recently completed store receives the
value from the store queue at the store's data-ready time instead of
paying the cache path.
"""

from __future__ import annotations

from typing import Dict

from repro.cache.hierarchy import MemoryHierarchy


class MemoryScheduler:
    """Load/store timing against the data-cache hierarchy."""

    def __init__(self, hierarchy: MemoryHierarchy,
                 forward_window: int = 128) -> None:
        self.hierarchy = hierarchy
        self.forward_window = forward_window
        self._all_store_addrs_known = 0
        self._forward: Dict[int, int] = {}  # word addr -> data-ready
        #: traffic counters
        self.loads = 0
        self.stores = 0
        self.forwarded_loads = 0
        #: loads delayed by an unknown store address
        self.blocked_loads = 0

    # ------------------------------------------------------------------

    def load_timing(self, addr: int, agen_done: int) -> int:
        """Cycle the loaded value becomes available."""
        self.loads += 1
        start = agen_done
        if start < self._all_store_addrs_known:
            start = self._all_store_addrs_known
            self.blocked_loads += 1
        word = addr & ~3
        forwarded = self._forward.get(word)
        if forwarded is not None and \
                forwarded + self.forward_window >= start:
            self.forwarded_loads += 1
            # The line is referenced either way (the access is issued
            # before the forward is recognized in this simple model).
            self.hierarchy.load(addr)
            return max(start + 1, forwarded)
        extra = self.hierarchy.load(addr)
        return start + 1 + extra

    def store_timing(self, addr: int, agen_done: int,
                     data_ready: int) -> int:
        """Cycle the store is retirement-complete (address and data
        both known). Updates the scheduler's address-known horizon and
        the forwarding window."""
        self.stores += 1
        if agen_done > self._all_store_addrs_known:
            self._all_store_addrs_known = agen_done
        done = max(agen_done, data_ready)
        word = addr & ~3
        self._forward[word] = done
        if len(self._forward) > 4096:
            self._prune(done)
        self.hierarchy.store(addr)
        return done

    def _prune(self, now: int) -> None:
        horizon = now - self.forward_window
        self._forward = {w: t for w, t in self._forward.items()
                         if t >= horizon}


__all__ = ["MemoryScheduler"]
