"""Observer goldens: the event JSONL and the Chrome trace, byte for byte.

Each run records its events through a :class:`JsonlSink` and its spans
through a ``Telemetry(spans=True)`` session, then pins the sha256 of
both outputs. The per-kind counts sit next to each digest and are
checked first, so a drift names the event or span family that moved
before the digest says that something did.
"""

from collections import Counter
from dataclasses import replace
import hashlib
import io
import json

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.telemetry import Telemetry
from repro.telemetry.events import JsonlSink
from repro.telemetry.exporters.chrometrace import write_chrome_trace


def _paper():
    return SimConfig.paper(OptimizationConfig.all())


def _evicting():
    """A 16-set TRRIP trace cache with 1 KiB L1s, verifying every pass:
    evicts, replaces resident lines and records verify spans."""
    base = _paper()
    return replace(
        base,
        trace_cache=replace(base.trace_cache, num_sets=16,
                            policy="trrip"),
        hierarchy=replace(base.hierarchy, l1i_size=1024, l1d_size=1024,
                          policy="trrip"),
        verify_fill=True)


GOLDENS = {
    "compress-0.1": dict(
        bench="compress", scale=0.1, config=_paper, cycles=4087,
        events_sha="cb2f0632c0dbf136b83ab72396a99c7e"
                   "7003bfd03e8541ceeddb7232b2a3d0ab",
        events={"branch.mispredict": 69, "fetch.misfetch": 54,
                "opt.applied": 190, "opt.rejected": 46,
                "rename.checkpoint_repair": 25, "run.finished": 1,
                "run.started": 1, "segment.built": 84,
                "segment.deduped": 226},
        trace_sha="10fb132cdc0ae41c60715431f14097fc"
                  "72813468e0f5c1dc1b7827ed7236b022",
        spans={"pass.moves": 84, "pass.placement": 84,
               "pass.reassoc": 84, "pass.scaled_adds": 84,
               "segment.collect": 310, "segment.optimize": 84,
               "tc.insert": 84, "tc.residency": 84, "tc.reuse": 399}),
    "li-0.1": dict(
        bench="li", scale=0.1, config=_paper, cycles=3012,
        events_sha="f29e5e200a9225542aee63fb2120a101"
                   "4e7fbd8c3c8883f275fa9d62b6606e3f",
        events={"branch.mispredict": 103, "fetch.misfetch": 155,
                "opt.applied": 217, "opt.rejected": 4,
                "run.finished": 1, "run.started": 1,
                "segment.built": 80, "segment.deduped": 401},
        trace_sha="456bb3e6a4d8202986a7fcbed5204713"
                  "fb842fbd65c55b06173ecff9d51e77de",
        spans={"pass.moves": 80, "pass.placement": 80,
               "pass.reassoc": 80, "pass.scaled_adds": 80,
               "segment.collect": 481, "segment.optimize": 80,
               "tc.insert": 80, "tc.residency": 80, "tc.reuse": 581}),
    "compress-0.15-evicting": dict(
        bench="compress", scale=0.15, config=_evicting, cycles=5721,
        events_sha="05e43f800451a4310f7d92d00ebcdb1c"
                   "11a04edf3e8daaa94d69dfd79d7b0b02",
        events={"branch.mispredict": 107, "fetch.misfetch": 172,
                "opt.applied": 395, "opt.rejected": 91,
                "rename.checkpoint_repair": 37, "run.finished": 1,
                "run.started": 1, "segment.built": 174,
                "segment.deduped": 341, "tc.evict": 118},
        trace_sha="ecb429ea688b68965a71ce0d15ad7fc5"
                  "9da2d4449b4dc84481f2855f7c4776ea",
        spans={"pass.moves": 174, "pass.placement": 174,
               "pass.reassoc": 174, "pass.scaled_adds": 174,
               "segment.collect": 515, "segment.optimize": 174,
               "segment.verify": 174, "tc.evict": 118,
               "tc.insert": 174, "tc.residency": 174, "tc.reuse": 564}),
}


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_observer_output_is_pinned(key, tmp_path):
    golden = GOLDENS[key]
    trace = Executor(workloads.build(golden["bench"], golden["scale"])).run()
    telemetry = Telemetry(spans=True)
    buffer = io.StringIO()
    telemetry.attach(JsonlSink(buffer))
    result = Engine(golden["config"](), telemetry=telemetry).run(
        trace, golden["bench"])
    assert result.cycles == golden["cycles"]

    jsonl = buffer.getvalue()
    events = Counter(json.loads(line)["kind"]
                     for line in jsonl.splitlines())
    assert dict(events) == golden["events"]
    assert hashlib.sha256(jsonl.encode()).hexdigest() \
        == golden["events_sha"]

    spans = Counter(record["name"] for record in telemetry.spans.records)
    assert dict(spans) == golden["spans"]
    path = tmp_path / "trace.json"
    write_chrome_trace(path, telemetry.spans)
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == golden["trace_sha"]
