"""A job pays only for the state and analysis something reads.

Dependency marking is computed by its readers (placement and the
pre-decode encoder), never by a build without placement; cache,
trace-cache and replacement-policy state is created per set the first
time that set is touched.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import pytest

from repro import workloads
from repro.cache.setassoc import SetAssocCache
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit import dependency
from repro.fillunit.opts import placement
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.tracecache.cache import TraceCache


@pytest.fixture(scope="module")
def trace():
    return Executor(workloads.build("compress", scale=0.05)).run()


def count_marking(monkeypatch) -> list:
    """Count every call of ``mark_dependencies``, wherever it is bound."""
    calls = []
    original = dependency.mark_dependencies

    def counting(instrs):
        calls.append(len(instrs))
        return original(instrs)

    monkeypatch.setattr(dependency, "mark_dependencies", counting)
    monkeypatch.setattr(placement, "mark_dependencies", counting,
                        raising=False)
    return calls


NO_PLACEMENT = {
    "none": OptimizationConfig.none(),
    "moves+reassoc+scaled_adds": OptimizationConfig(
        moves=True, reassoc=True, scaled_adds=True),
    "extended-without-placement": dataclasses.replace(
        OptimizationConfig.extended(), placement=False),
}


@pytest.mark.parametrize("opts", list(NO_PLACEMENT.values()),
                         ids=list(NO_PLACEMENT))
def test_builds_without_placement_mark_no_dependencies(opts, trace,
                                                       monkeypatch):
    calls = count_marking(monkeypatch)
    engine = Engine(SimConfig.paper(opts))
    engine.run(trace, "compress")
    assert engine.fill_unit.stats.segments_built > 0
    assert calls == []


def test_placement_marks_each_build_once(trace, monkeypatch):
    """The counter sees placement's marking: one call per build that
    ran the passes (a reused build replays its record)."""
    calls = count_marking(monkeypatch)
    engine = Engine(SimConfig.paper(OptimizationConfig.all()))
    engine.run(trace, "compress")
    stats = engine.fill_unit.stats
    assert len(calls) == stats.segments_built - stats.segments_reused > 0


POLICIES = [("lru", "lru"), ("srrip", "trrip"), ("trrip", "srrip")]


def policy_config(hierarchy_policy: str, tc_policy: str) -> SimConfig:
    base = SimConfig.paper(OptimizationConfig.all())
    return dataclasses.replace(
        base,
        hierarchy=dataclasses.replace(base.hierarchy,
                                      policy=hierarchy_policy),
        trace_cache=dataclasses.replace(base.trace_cache, policy=tc_policy))


def caches(engine: Engine) -> list:
    hierarchy = engine.hierarchy
    return [hierarchy.l1i, hierarchy.l1d, hierarchy.l2, engine.trace_cache]


def policy_sets(policy) -> dict:
    """The per-set containers of a policy, by attribute name (none for
    LRU, which keeps no state)."""
    return {name: getattr(policy, name)
            for name in ("_meta", "_reuse", "_history")
            if hasattr(policy, name)}


@pytest.mark.parametrize("hierarchy_policy,tc_policy", POLICIES)
def test_unrun_engine_holds_no_per_set_state(hierarchy_policy, tc_policy):
    engine = Engine(policy_config(hierarchy_policy, tc_policy))
    for cache in caches(engine):
        assert len(cache._sets) == 0, cache
        for name, sets in policy_sets(cache.policy).items():
            assert len(sets) == 0, (cache, name)


def record_touched_sets(monkeypatch) -> dict:
    """Wrap every cache and trace-cache entry point so each records the
    set index it addresses: ``{cache: {index, ...}}``."""
    touched: dict = defaultdict(set)

    def by_addr(method):
        def wrapper(self, addr, *args, **kwargs):
            touched[self].add((addr >> self._line_shift) & self._set_mask)
            return method(self, addr, *args, **kwargs)
        return wrapper

    def by_pc(method):
        def wrapper(self, pc, *args, **kwargs):
            touched[self].add((pc >> 2) & self._set_mask)
            return method(self, pc, *args, **kwargs)
        return wrapper

    def by_segment(method):
        def wrapper(self, segment, *args, **kwargs):
            touched[self].add((segment.start_pc >> 2) & self._set_mask)
            return method(self, segment, *args, **kwargs)
        return wrapper

    for name in ("access", "fill", "probe", "invalidate"):
        monkeypatch.setattr(SetAssocCache, name,
                            by_addr(getattr(SetAssocCache, name)))
    for name in ("lookup", "probe", "refresh"):
        monkeypatch.setattr(TraceCache, name,
                            by_pc(getattr(TraceCache, name)))
    monkeypatch.setattr(TraceCache, "insert",
                        by_segment(TraceCache.insert))
    return touched


@pytest.mark.parametrize("hierarchy_policy,tc_policy", POLICIES)
def test_run_materializes_exactly_the_touched_sets(
        hierarchy_policy, tc_policy, trace, monkeypatch):
    """After a run, the sets a cache holds are the set indices it was
    addressed at, and a policy holds state only for sets that hold
    lines."""
    touched = record_touched_sets(monkeypatch)
    engine = Engine(policy_config(hierarchy_policy, tc_policy))
    engine.run(trace, "compress")
    for cache in caches(engine):
        assert touched[cache], cache
        assert set(cache._sets) == touched[cache], cache
        assert len(touched[cache]) < cache._set_mask + 1, cache
        filled = {index for index, entries in cache._sets.items()
                  if entries}
        for name, sets in policy_sets(cache.policy).items():
            assert set(sets) == filled, (cache, name)
