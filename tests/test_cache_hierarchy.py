"""Memory hierarchy latency tests."""

from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy


def make():
    return MemoryHierarchy(HierarchyConfig(
        l1i_size=1024, l1d_size=1024, l2_size=8192,
        l2_latency=6, memory_latency=50))


def test_cold_load_pays_full_trip():
    h = make()
    assert h.load(0x1000) == 56           # L2 miss: 6 + 50


def test_warm_load_is_free_beyond_l1():
    h = make()
    h.load(0x1000)
    assert h.load(0x1000) == 0


def test_l2_hit_costs_l2_latency():
    h = make()
    h.load(0x1000)                        # fills L1D and L2
    # Four loads to the same 4-way L1D set push the line out of L1D;
    # they share its 8-way L2 set too, which still has room for it.
    for k in range(1, 5):
        h.load(0x1000 + k * 1024)
    assert not h.l1d.probe(0x1000)
    assert h.l2.probe(0x1000)
    assert h.load(0x1000) == 6


def test_instruction_and_data_paths_are_separate():
    h = make()
    h.fetch_instr(0x2000)
    assert h.l1i.probe(0x2000)
    assert not h.l1d.probe(0x2000)
    h.load(0x3000)
    assert h.l1d.probe(0x3000)
    assert not h.l1i.probe(0x3000)


def test_l2_is_unified():
    h = make()
    h.fetch_instr(0x4000)
    assert h.l2.probe(0x4000)
    # A data load to the line an instruction fetch brought into L2
    # hits there (6 cycles), not memory (56).
    assert h.load(0x4000) == 6


def test_store_updates_residency_without_latency_result():
    h = make()
    h.store(0x5000)
    assert h.l1d.probe(0x5000)
    assert h.load(0x5000) == 0


def test_paper_configuration_defaults():
    h = MemoryHierarchy()
    assert h.l1i.size_bytes == 4 * 1024
    assert h.l1d.size_bytes == 64 * 1024
    assert h.l2.size_bytes == 1024 * 1024
    assert h.config.l2_latency == 6
    assert h.config.memory_latency == 50


def test_stats_summary_shape():
    h = make()
    h.load(0x100)
    summary = h.stats_summary()
    assert set(summary) == {"l1i", "l1d", "l2"}
    assert summary["l1d"] == (0, 1)
