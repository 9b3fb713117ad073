"""Set-associative cache model tests."""

import pytest

from repro.cache.setassoc import CacheStats, SetAssocCache
from repro.errors import ConfigError


def make(size=1024, assoc=2, line=32):
    return SetAssocCache(size, assoc, line, "test")


def test_geometry():
    cache = make()
    assert cache.num_sets == 1024 // (2 * 32)
    assert cache.resident_lines() == 0


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigError):
        SetAssocCache(1000, 2, 32)     # size not divisible
    with pytest.raises(ConfigError):
        SetAssocCache(1024, 3, 32)     # assoc not a power of two
    with pytest.raises(ConfigError):
        SetAssocCache(1024, 2, 24)     # line not a power of two


def test_first_access_misses_then_hits():
    cache = make()
    assert cache.access(0x100) is False
    assert cache.access(0x100) is True
    assert cache.access(0x11F) is True      # same 32-byte line
    assert cache.access(0x120) is False     # next line


def test_stats_track_hits_and_misses():
    cache = make()
    cache.access(0)
    cache.access(0)
    cache.access(64)
    assert cache.stats.accesses == 3
    assert cache.stats.hits == 1
    assert cache.stats.misses == 2
    assert cache.stats.hit_rate == pytest.approx(1 / 3)


def test_lru_eviction_order():
    cache = make(size=128, assoc=2, line=32)  # 2 sets
    set_stride = 2 * 32  # addresses mapping to set 0
    a, b, c = 0, set_stride, 2 * set_stride
    cache.access(a)
    cache.access(b)
    cache.access(a)          # a becomes MRU
    cache.access(c)          # evicts b (LRU)
    assert cache.probe(a)
    assert not cache.probe(b)
    assert cache.probe(c)


def test_hit_refreshes_lru():
    cache = make(size=128, assoc=2, line=32)
    stride = 64
    cache.access(0)
    cache.access(stride)
    cache.access(0)              # refresh 0
    cache.access(2 * stride)     # should evict `stride`
    assert cache.probe(0)
    assert not cache.probe(stride)


def test_probe_does_not_allocate_or_count():
    cache = make()
    assert cache.probe(0x40) is False
    assert cache.stats.accesses == 0
    assert cache.access(0x40) is False  # still a miss


def test_fill_installs_without_counting():
    cache = make()
    cache.fill(0x40)
    assert cache.stats.accesses == 0
    assert cache.access(0x40) is True




def test_distinct_sets_do_not_conflict():
    cache = make(size=128, assoc=2, line=32)
    # lines 0 and 1 map to different sets
    cache.access(0)
    cache.access(32)
    cache.access(0)
    assert cache.stats.hits == 1
    assert cache.resident_lines() == 2


def test_direct_mapped_cache():
    cache = SetAssocCache(64, 1, 32, "dm")
    cache.access(0)
    cache.access(64)    # conflicts in a direct-mapped 2-set cache
    assert not cache.probe(0)


def test_stats_reset():
    stats = CacheStats(accesses=5, hits=2)
    stats.reset()
    assert stats.accesses == 0 and stats.hits == 0
    assert stats.hit_rate == 0.0
