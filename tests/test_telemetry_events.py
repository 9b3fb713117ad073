"""Event stream tests: sinks, JSONL round trip, and the pipeline's
event emission."""

import pytest

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    BRANCH_MISPREDICT,
    EventStream,
    JsonlSink,
    MemorySink,
    NULL_EVENT_STREAM,
    RUN_FINISHED,
    RUN_STARTED,
    SEGMENT_BUILT,
)
from repro.telemetry.io import read_events
from tests.helpers import run_asm

LOOP = """
main:
    li   $t9, 50
loop:
    addi $t0, $t0, 1
    sll  $t1, $t0, 2
    add  $t2, $t1, $t0
    blt  $t0, $t9, loop
    halt
"""


def test_memory_sink_kind_filter():
    stream = EventStream()
    sink = MemorySink(kinds=[SEGMENT_BUILT])
    stream.attach(sink)
    stream.emit(SEGMENT_BUILT, 1)
    stream.emit(BRANCH_MISPREDICT, 2)
    assert [e.kind for e in sink.events] == [SEGMENT_BUILT]
    assert sink.by_kind(SEGMENT_BUILT) == sink.events


def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "events.jsonl"
    stream = EventStream()
    sink = JsonlSink(str(path))
    stream.attach(sink)
    stream.emit(SEGMENT_BUILT, 7, start_pc=0x1000, instrs=12)
    stream.emit(BRANCH_MISPREDICT, 9, pc=0x2000, taken=True)
    sink.close()
    assert sink.written == 2
    events = read_events(str(path))
    assert [e.kind for e in events] == [SEGMENT_BUILT, BRANCH_MISPREDICT]
    assert events[0].cycle == 7
    assert events[0].data == {"start_pc": 0x1000, "instrs": 12}
    assert events[1].data["taken"] is True


def test_null_stream_rejects_sinks():
    NULL_EVENT_STREAM.emit("anything", 0, ignored=1)   # silently no-op
    assert NULL_EVENT_STREAM.emitted == 0
    with pytest.raises(RuntimeError):
        NULL_EVENT_STREAM.attach(MemorySink())


def test_pipeline_emits_lifecycle_and_component_events():
    _, trace = run_asm(LOOP)
    telemetry = Telemetry()
    sink = telemetry.attach_memory()
    result = Engine(SimConfig.tiny(), telemetry=telemetry).run(
        trace, "t", "r")
    kinds = {e.kind for e in sink.events}
    assert RUN_STARTED in kinds
    assert RUN_FINISHED in kinds
    assert SEGMENT_BUILT in kinds
    assert BRANCH_MISPREDICT in kinds
    finished = sink.by_kind(RUN_FINISHED)[0]
    assert finished.data["cycles"] == result.cycles
    assert sum(finished.data["attribution"].values()) == result.cycles
    built = sink.by_kind(SEGMENT_BUILT)
    assert len(built) == result.segments_built
    mispredicted = sink.by_kind(BRANCH_MISPREDICT)
    assert len(mispredicted) == (result.mispredicts
                                 + result.indirect_mispredicts)


def test_shared_session_keeps_each_runs_counters_its_own():
    """Two engines on one session count into registries of their own:
    the same trace gives the same counters, not the sum of both runs."""
    _, trace = run_asm(LOOP)
    telemetry = Telemetry()
    sink = telemetry.attach_memory(kinds=[RUN_FINISHED])
    first, second = (Engine(SimConfig.tiny(), telemetry=telemetry).run(
        trace, "t", label) for label in ("a", "b"))
    assert first.telemetry["fetch.tc.hits"] > 0
    assert first.telemetry == second.telemetry
    assert [e.data["label"] for e in sink.events] == ["a", "b"]
