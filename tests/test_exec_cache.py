"""The content-addressed on-disk result cache."""

from __future__ import annotations

import json

import pytest

from repro.core.results import SimResult
from repro.exec.cache import ENVELOPE_VERSION, ResultCache

FP = "ab" + "0" * 62
FP2 = "cd" + "1" * 62


def _result(cycles: int = 100) -> SimResult:
    return SimResult(benchmark="compress", config_label="baseline",
                     instructions=250, cycles=cycles,
                     telemetry={"fetch.tc.instrs": 200})


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    stored = _result()
    cache.put(FP, stored, provenance={"benchmark": "compress"})
    loaded = cache.get(FP)
    assert loaded == stored
    assert loaded.telemetry == {"fetch.tc.instrs": 200}


def test_sharded_layout_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(FP, _result())
    assert path == tmp_path / FP[:2] / f"{FP}.json"
    cache.put(FP2, _result(200))
    assert len(cache) == 2
    assert FP in cache and FP2 in cache
    assert "ee" + "2" * 62 not in cache


def test_missing_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(FP) is None


@pytest.mark.parametrize("content", [
    "{ not json", "[]", "null", '{"envelope": 1, "result": []}'])
def test_corrupt_entry_is_a_miss_and_removed(tmp_path, content):
    cache = ResultCache(tmp_path)
    path = cache.put(FP, _result())
    path.write_text(content)
    assert cache.get(FP) is None
    assert not path.exists()
    # the slot can be refilled and read again
    cache.put(FP, _result(300))
    assert cache.get(FP).cycles == 300


def test_envelopes_read_every_entry_and_reject_corrupt_ones(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(FP, _result(), provenance={"benchmark": "compress"})
    path = cache.put(FP2, _result(200))
    assert list(cache.envelopes()) == [
        ({"benchmark": "compress"}, _result()), ({}, _result(200))]
    path.write_text("{not json")
    with pytest.raises(ValueError, match=FP2):
        list(cache.envelopes())
    # unlike a get, reading the set leaves the entry for inspection
    assert path.exists()


def test_schema_1_result_is_a_miss(tmp_path):
    """A result written before each count was stored once (schema 1:
    typed counters and ``coverage`` beside their telemetry scopes;
    schema 2: the fill unit's pass counts again, summed over passes)
    reads as a miss and is cleared, so the slot is re-simulated."""
    cache = ResultCache(tmp_path)
    for old in (
            {"schema": 1, "tc_fetched_instrs": 200,
             "coverage": {"moves": 0, "reassoc": 0, "scaled": 0,
                          "any_opt": 0}},
            {"schema": 2}):
        path = cache.put(FP, _result())
        envelope = json.loads(path.read_text())
        envelope["result"].update(old)
        path.write_text(json.dumps(envelope))
        assert cache.get(FP) is None
        assert not path.exists()


def test_stale_envelope_version_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(FP, _result())
    envelope = json.loads(path.read_text())
    envelope["envelope"] = 999
    path.write_text(json.dumps(envelope))
    assert cache.get(FP) is None
    assert not path.exists()


def test_overwrite_is_atomic_last_writer_wins(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(FP, _result(100))
    cache.put(FP, _result(150))
    assert cache.get(FP).cycles == 150
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []


def test_envelope_bytes_match_the_streamed_deep_copy(tmp_path):
    """``put`` writes one ``json.dumps`` of a shallow result dict; the
    file is byte for byte what streaming ``json.dump`` of a
    ``dataclasses.asdict`` copy wrote."""
    import io
    from dataclasses import asdict

    from repro import workloads
    from repro.core.config import SimConfig
    from repro.core.engine import Engine
    from repro.core.export import result_to_dict
    from repro.fillunit.opts.base import OptimizationConfig
    from repro.machine.executor import Executor
    from repro.telemetry import Telemetry

    trace = Executor(workloads.build("compress", 0.05)).run()
    result = Engine(SimConfig.paper(OptimizationConfig.all()),
                    telemetry=Telemetry()).run(trace, "compress", "all")
    assert result.attribution and result.telemetry
    provenance = {"benchmark": "compress", "host_s": {"trace": 0.5}}
    path = ResultCache(tmp_path).put(FP, result, provenance=provenance)

    shallow = result_to_dict(result)
    deep = asdict(result)
    deep.update(schema=shallow["schema"])
    streamed = io.StringIO()
    json.dump({"envelope": ENVELOPE_VERSION, "fingerprint": FP,
               "provenance": provenance, "result": deep},
              streamed, indent=1)
    assert path.read_text() == streamed.getvalue()
