"""A run's counts: ``SimResult.telemetry``.

Every stage writes its scopes to the result's ``telemetry`` dict once
the run finishes, and the engine reads the typed counters from it
through ``COUNTER_SCOPES``. (The file keeps the name it had when the
counts lived in a metric registry, so its test ids stay comparable.)
"""

import dataclasses
import hashlib
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
                              pass_totals=alone.pass_totals,
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


def test_snapshot_determinism(trace):
    a, b = (Engine(CONFIGS["extended"]).run(trace, "compress", "x")
            for _ in range(2))
    assert a.telemetry == b.telemetry
    # sorted scope order, whatever order the stages wrote in
    assert list(a.telemetry) == sorted(a.telemetry)
    assert list(a.telemetry) == list(b.telemetry)


def test_real_run_snapshot_is_deterministic():
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
    # the typed counters are read from the telemetry dict
    r = results[0]
    assert r.telemetry["fetch.tc.instrs"] == r.tc_fetched_instrs
    assert r.telemetry["fetch.ic.instrs"] == r.ic_fetched_instrs
    assert r.telemetry["branch.cond.mispredicts"] == r.mispredicts
    assert r.telemetry["rename.moves.eliminated"] == r.moves_eliminated


#: (scopes, sha256 of ``json.dumps(result.telemetry)``, which keeps the
#: key order) of runs no result digest covers: an empty trace, and
#: compress at scale 0.05 without a trace cache and with online
#: verification
TELEMETRY_DIGESTS = {
    "empty": (43, "c80395d956d973f799100fbdb0be5d54"
                  "bfb19a9e3ba4f848a1812b42a7b71b41"),
    "no_trace_cache": (29, "9bebf0d3952121790b3cb2a3d45a765c"
                           "19b1861f72af648084f0efe0e7c8d702"),
    "verify_fill": (52, "380197076f1adb458b6394b46c23b14c"
                        "f7dd3b7abb854b8ca6c7920f5c33f690"),
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
