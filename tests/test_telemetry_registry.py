"""Telemetry registry tests: scoped metrics and snapshot
determinism."""

import pytest

from repro.errors import ConfigError
from repro.telemetry.registry import TelemetryRegistry


def test_counter_scoping_and_get_or_create():
    registry = TelemetryRegistry()
    counter = registry.counter("fetch.tc.hits")
    counter.add()
    counter.add(4)
    assert registry.counter("fetch.tc.hits") is counter
    assert registry.value("fetch.tc.hits") == 5
    assert registry.value("never.registered") == 0
    assert "fetch.tc.hits" in registry
    assert len(registry) == 1


def test_gauge_last_write_wins():
    registry = TelemetryRegistry()
    gauge = registry.gauge("fetch.tc.resident_segments")
    gauge.set(10)
    gauge.set(7)
    assert registry.value("fetch.tc.resident_segments") == 7


def test_histogram_summary_and_buckets():
    registry = TelemetryRegistry()
    hist = registry.histogram("fetch.group.size")
    for value in (0, 1, 3, 8, 16):
        hist.observe(value)
    snap = registry.value("fetch.group.size")
    assert snap["count"] == 5
    assert snap["total"] == 28
    assert snap["min"] == 0 and snap["max"] == 16
    assert snap["mean"] == pytest.approx(5.6)
    # power-of-two buckets keyed by bit_length
    assert snap["buckets"] == {"0": 1, "1": 1, "2": 1, "4": 1, "5": 1}


def test_scope_validation():
    registry = TelemetryRegistry()
    with pytest.raises(ConfigError):
        registry.counter("Fetch.TC.Hits")
    with pytest.raises(ConfigError):
        registry.counter("fetch..hits")
    with pytest.raises(ConfigError):
        registry.counter("")


def test_kind_conflict_raises():
    registry = TelemetryRegistry()
    registry.counter("fetch.tc.hits")
    with pytest.raises(ConfigError):
        registry.gauge("fetch.tc.hits")
    with pytest.raises(ConfigError):
        registry.histogram("fetch.tc.hits")


def _populate(registry):
    registry.counter("fetch.tc.hits").add(3)
    registry.counter("fetch.tc.lookups").add(4)
    registry.counter("backend.bypass.cross_cluster").add(2)
    registry.gauge("fetch.tc.resident_segments").set(9)
    hist = registry.histogram("fillunit.segment.length")
    for v in (4, 9, 16):
        hist.observe(v)


def test_snapshot_determinism():
    a, b = TelemetryRegistry(), TelemetryRegistry()
    _populate(a)
    _populate(b)
    assert a.flat() == b.flat()
    assert a.snapshot() == b.snapshot()
    # sorted scope order, independent of registration order
    assert list(a.flat()) == sorted(a.flat())


def test_nested_snapshot_structure():
    registry = TelemetryRegistry()
    _populate(registry)
    tree = registry.snapshot()
    assert tree["fetch"]["tc"]["hits"] == 3
    assert tree["fetch"]["tc"]["lookups"] == 4
    assert tree["backend"]["bypass"]["cross_cluster"] == 2
    assert tree["fillunit"]["segment"]["length"]["count"] == 3


def test_real_run_snapshot_is_deterministic():
    from repro.core.config import SimConfig
    from repro.core.engine import Engine
    from tests.helpers import run_asm

    source = """
    main:
        li   $t9, 40
    loop:
        addi $t0, $t0, 1
        sll  $t1, $t0, 2
        add  $t2, $t1, $t0
        blt  $t0, $t9, loop
        halt
    """
    _, trace = run_asm(source)
    results = []
    for _ in range(2):
        model = Engine(SimConfig.tiny())
        results.append(model.run(trace, "t", "r"))
    assert results[0].telemetry == results[1].telemetry
    assert results[0].telemetry  # non-empty even without a session
    # SimResult counters are derived from the registry (single source
    # of truth).
    r = results[0]
    assert r.telemetry["fetch.tc.instrs"] == r.tc_fetched_instrs
    assert r.telemetry["fetch.ic.instrs"] == r.ic_fetched_instrs
    assert r.telemetry["branch.cond.mispredicts"] == r.mispredicts
    assert r.telemetry["rename.moves.eliminated"] == r.moves_eliminated
