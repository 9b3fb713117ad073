"""A run's counts: ``SimResult.telemetry``.

Every stage writes its scopes to the result's ``telemetry`` dict once
the run finishes, and the engine reads the typed counters from it
through ``COUNTER_SCOPES``. (The file keeps the name it had when the
counts lived in a metric registry, so its test ids stay comparable.)
"""

import dataclasses
import hashlib
import itertools
import json
import re

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.results import COUNTER_SCOPES, SimResult, histogram
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.machine.tracing import CommittedTrace
from tests.helpers import evicting_config

SCOPE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: the machines whose counts are checked: each pass set, the machine
#: without a trace cache, and online verification after every pass
CONFIGS = {
    "none": SimConfig.paper(OptimizationConfig.none()),
    "all": SimConfig.paper(OptimizationConfig.all()),
    "extended": SimConfig.paper(OptimizationConfig.extended()),
    "no_trace_cache": dataclasses.replace(
        SimConfig.paper(OptimizationConfig.all()),
        trace_cache_enabled=False),
    "verify_each": dataclasses.replace(
        SimConfig.paper(OptimizationConfig.all()), verify_fill=True,
        verify_each_pass=True),
}


@pytest.fixture(scope="module")
def trace():
    return Executor(workloads.build("compress", 0.05)).run()


@pytest.fixture(scope="module")
def runs(trace):
    return {name: Engine(config).run(trace, "compress", name)
            for name, config in CONFIGS.items()}


def test_histogram_summary_and_buckets():
    summary = histogram({0: 1, 1: 1, 3: 1, 8: 1, 16: 1})
    assert summary["count"] == 5
    assert summary["total"] == 28
    assert summary["min"] == 0 and summary["max"] == 16
    assert summary["mean"] == pytest.approx(5.6)
    # power-of-two buckets keyed by bit_length, zero in bucket 0
    assert summary["buckets"] == {"0": 1, "1": 1, "2": 1, "4": 1, "5": 1}
    assert list(summary) == ["count", "total", "min", "max", "mean",
                             "buckets"]
    # a value seen several times lands in its bucket that many times
    assert histogram({5: 3, 6: 1})["buckets"] == {"3": 4}
    assert histogram({}) == {"count": 0, "total": 0, "min": None,
                             "max": None, "mean": 0.0, "buckets": {}}


def test_scope_validation(runs):
    for result in runs.values():
        bad = [scope for scope in result.telemetry
               if not SCOPE.match(scope)]
        assert not bad, bad


def test_gauge_last_write_wins(trace):
    """A point-in-time count is the value at the end of the run."""
    engine = Engine(CONFIGS["all"])
    result = engine.run(trace, "compress", "all")
    resident = result.telemetry["fetch.tc.resident_segments"]
    assert resident == engine.trace_cache.resident_segments() > 0


def test_each_scope_has_one_writer(trace):
    """Stages write disjoint scopes, and none sets a typed counter."""
    engine = Engine(CONFIGS["verify_each"])
    result = engine.run(trace, "compress", "verify_each")
    written = {}
    for stage in engine.stages:
        alone = SimResult("compress", "verify_each", 0, 0)
        stage.finish_run(None, alone)
        untouched = SimResult("compress", "verify_each", 0, 0,
                              telemetry=alone.telemetry)
        assert alone == untouched, stage.name
        for scope in alone.telemetry:
            assert scope not in written, (scope, written.get(scope),
                                          stage.name)
            written[scope] = stage.name
    assert sorted(written) == list(result.telemetry)


@pytest.mark.parametrize("name", CONFIGS)
def test_typed_counters_read_their_scopes(runs, name):
    result = runs[name]
    telemetry = result.telemetry
    for field, scope in COUNTER_SCOPES.items():
        owner, _, attr = field.rpartition(".")
        value = getattr(result.coverage if owner else result, attr)
        assert value == telemetry.get(scope, 0), field
    if name == "no_trace_cache":
        assert "fetch.tc.hits" not in telemetry
        assert result.tc_hits == result.tc_lookups == 0
    else:
        assert result.tc_hits == telemetry["fetch.tc.hits"] > 0


#: the restated-scope tripwire's matrix: eight stand-ins at scale 0.1,
#: each on the paper machine under three pass sets and on two
#: evicting machines
RESTATED_BENCHES = ("compress", "li", "gcc", "ijpeg", "m88ksim", "go",
                    "tex", "python")
RESTATED_CONFIGS = {
    "none": CONFIGS["none"],
    "all": CONFIGS["all"],
    "extended": CONFIGS["extended"],
    "all/lru": evicting_config(OptimizationConfig.all(), "lru"),
    "extended/trrip": evicting_config(OptimizationConfig.extended(),
                                      "trrip"),
}

#: relations that hold in every run of the matrix and are kept for
#: now: the retire stage's conditional mispredicts are the
#: predictor's own (its PHTs') plus the promoted branches' ones
KEPT_RELATIONS = {
    "branch.cond.mispredicts = branch.pht.mispredicts"
    " + branch.promoted.mispredicts",
}


def restatements(results):
    """Every relation that holds in all of *results* between their
    values: the top-level scalar scopes (histogram summaries are
    exempt; a scope a run did not write reads 0), ``instructions`` and
    ``cycles``. A relation is one value equal to another, or one
    value equal to the sum of two others. A value that is 0 in every
    run relates to nothing: the matrix never exercised it."""
    names = sorted({scope for result in results
                    for scope, value in result.telemetry.items()
                    if not isinstance(value, dict)})
    columns = {name: tuple(result.telemetry.get(name, 0)
                           for result in results) for name in names}
    columns["instructions"] = tuple(r.instructions for r in results)
    columns["cycles"] = tuple(r.cycles for r in results)
    columns = {name: column for name, column in columns.items()
               if any(column)}
    by_column: dict = {}
    for name, column in columns.items():
        by_column.setdefault(column, []).append(name)
    found = set()
    for same in by_column.values():
        for a, b in itertools.combinations(same, 2):
            found.add(f"{a} = {b}")
    for b, c in itertools.combinations(columns, 2):
        total = tuple(x + y for x, y in zip(columns[b], columns[c]))
        for a in by_column.get(total, ()):
            if a not in (b, c):
                found.add(f"{a} = {b} + {c}")
    return found


def test_no_scope_restates_another():
    """Each fact of a run is stored once: no count is another count,
    ``instructions``, ``cycles`` or the sum of two others in every run
    of a matrix of workloads and machines."""
    results = []
    for bench in RESTATED_BENCHES:
        trace = Executor(workloads.build(bench, scale=0.1)).run()
        for name, config in RESTATED_CONFIGS.items():
            results.append(Engine(config).run(trace, bench, name))
    restated = sorted(restatements(results) - KEPT_RELATIONS)
    assert not restated, "restated scopes:\n" + "\n".join(restated)


def test_snapshot_determinism(trace):
    a, b = (Engine(CONFIGS["extended"]).run(trace, "compress", "x")
            for _ in range(2))
    assert a.telemetry == b.telemetry
    # sorted scope order, whatever order the stages wrote in
    assert list(a.telemetry) == sorted(a.telemetry)
    assert list(a.telemetry) == list(b.telemetry)


def test_real_run_snapshot_is_deterministic():
    from tests.helpers import FetchSource, run_asm

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
        fetched = FetchSource()
        model.stages.append(fetched)
        results.append(model.run(trace, "t", "r"))
    assert results[0].telemetry == results[1].telemetry
    assert results[0].telemetry  # non-empty even without a session
    # the typed counters are read from the telemetry dict, and agree
    # with what an observer saw fetched
    r = results[0]
    assert r.telemetry["fetch.tc.instrs"] == r.tc_fetched_instrs \
        == fetched.tc > 0
    assert r.ic_fetched_instrs == fetched.ic > 0
    assert r.telemetry["branch.cond.mispredicts"] == r.mispredicts


#: (scopes, sha256 of ``json.dumps(result.telemetry)``, which keeps the
#: key order) of runs no result digest covers: an empty trace, and
#: compress at scale 0.05 without a trace cache and with online
#: verification
TELEMETRY_DIGESTS = {
    "empty": (37, "60f47e9eeaf3c70b64e190fc1482357b"
                  "98bc8004a678c53fd971cac5e10b6b33"),
    "no_trace_cache": (27, "1f7ddb4fa09a28c6b9e91d672d165bca"
                           "43200ab88c26bc5b1660755512500ca7"),
    "verify_fill": (46, "17c9e5b30f6fdd7bd09d2e2b196a95fb"
                        "5e4099944451b093309518736cb40d80"),
}


@pytest.mark.parametrize("case", TELEMETRY_DIGESTS)
def test_telemetry_digest(trace, case):
    config = SimConfig.paper(OptimizationConfig.all())
    if case == "empty":
        trace = CommittedTrace([], None, [])
    elif case == "no_trace_cache":
        config = dataclasses.replace(config, trace_cache_enabled=False)
    else:
        config = dataclasses.replace(config, verify_fill=True)
    result = Engine(config).run(trace, "compress", case)
    blob = json.dumps(result.telemetry)
    assert (len(result.telemetry),
            hashlib.sha256(blob.encode()).hexdigest()) \
        == TELEMETRY_DIGESTS[case]
