"""Span recorder API and segment-lifecycle instrumentation."""

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.stages import PipelineStage
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.telemetry import NULL_SPANS, SpanRecorder, Telemetry
from repro.telemetry.spans import CYCLES, WALL


# -- recorder API -------------------------------------------------------

def test_complete_span_and_instant():
    rec = SpanRecorder()
    rec.span("t", "work", 10.0, 5.0, start_pc=0x40)
    rec.instant("t", "tick", 12.0)
    assert len(rec) == 2
    span, instant = rec.records
    assert span["kind"] == "span" and span["dur"] == 5.0
    assert span["timebase"] == CYCLES
    assert span["args"] == {"start_pc": 0x40}
    assert instant["kind"] == "instant" and instant["dur"] == 0.0


def test_open_span_lifecycle_and_annotate():
    rec = SpanRecorder()
    handle = rec.begin("t", "job", 0.0, timebase=WALL, label="a")
    handle.annotate(extra=1).end(4.0, outcome="done")
    assert len(rec) == 1
    record = rec.records[0]
    assert record["ts"] == 0.0 and record["dur"] == 4.0
    assert record["timebase"] == WALL
    assert record["args"] == {"label": "a", "extra": 1,
                              "outcome": "done"}
    handle.end(9.0)  # double-end is a no-op
    assert len(rec) == 1


def test_end_open_closes_per_timebase():
    rec = SpanRecorder()
    rec.begin("t", "cycles-span", 1.0)
    rec.begin("t", "wall-span", 2.0, timebase=WALL)
    assert rec.end_open(100.0) == 1          # only the CYCLES span
    assert rec.by_name("cycles-span")[0]["dur"] == 99.0
    assert rec.end_open(200.0, timebase=WALL) == 1


def test_negative_duration_clamped():
    rec = SpanRecorder()
    rec.span("t", "x", 10.0, -3.0)
    assert rec.records[0]["dur"] == 0.0


def test_tracks_in_first_seen_order():
    rec = SpanRecorder()
    rec.instant("b", "x", 0.0)
    rec.instant("a", "x", 1.0)
    rec.instant("b", "y", 2.0)
    assert rec.tracks() == ["b", "a"]


def test_now_wall_is_monotonic_microseconds():
    rec = SpanRecorder()
    first = rec.now_wall()
    second = rec.now_wall()
    assert 0.0 <= first <= second


def test_null_recorder_is_inert():
    handle = NULL_SPANS.begin("t", "x", 0.0)
    handle.annotate(a=1).end(1.0)
    NULL_SPANS.span("t", "x", 0.0, 1.0)
    NULL_SPANS.instant("t", "x", 0.0)
    assert len(NULL_SPANS) == 0
    assert NULL_SPANS.records == []
    assert NULL_SPANS.end_open(5.0) == 0
    assert not NULL_SPANS.enabled


def test_telemetry_session_spans_flag():
    assert Telemetry().spans is NULL_SPANS
    assert Telemetry(spans=True).spans.enabled


# -- lifecycle instrumentation ------------------------------------------

@pytest.fixture(scope="module")
def traced_run():
    program = workloads.build("compress", 0.2)
    trace = Executor(program).run()
    config = SimConfig.paper(OptimizationConfig.all())
    config.verify_fill = True
    telemetry = Telemetry(spans=True)
    result = Engine(config, telemetry=telemetry).run(trace, "compress")
    return config, trace, telemetry.spans, result


def test_lifecycle_span_families_present(traced_run):
    _, _, recorder, _ = traced_run
    names = {record["name"] for record in recorder.records}
    for want in ("segment.collect", "segment.optimize",
                 "segment.verify", "pass.moves", "pass.placement",
                 "tc.insert", "tc.residency", "tc.reuse"):
        assert want in names, f"missing {want} spans"
    assert recorder.tracks() == ["fillunit", "tracecache"]


def test_pass_spans_nest_inside_optimize_window(traced_run):
    config, _, recorder, _ = traced_run
    optimize = recorder.by_name("segment.optimize")
    assert optimize, "no optimize spans"
    windows = {(r["ts"], r["args"]["start_pc"]): r for r in optimize}
    for record in recorder.records:
        if not record["name"].startswith("pass."):
            continue
        parents = [w for (ts, _), w in windows.items()
                   if ts <= record["ts"]
                   and record["ts"] + record["dur"]
                   <= ts + w["dur"] + 1e-9]
        assert parents, f"orphan pass span at ts={record['ts']}"
    for record in optimize:
        assert record["dur"] == float(config.fill_latency)


def test_verify_span_takes_last_slot(traced_run):
    config, _, recorder, _ = traced_run
    verify = recorder.by_name("segment.verify")
    assert verify
    n_passes = len(OptimizationConfig.all().enabled_names())
    share = config.fill_latency / (n_passes + 1)
    optimize_by_ts = {r["ts"]: r for r in
                      recorder.by_name("segment.optimize")}
    for record in verify:
        start_of_window = record["ts"] - n_passes * share
        assert start_of_window in optimize_by_ts
        assert record["dur"] == pytest.approx(share)
        assert "violations" in record["args"]


def test_residency_spans_all_closed(traced_run):
    config, _, recorder, result = traced_run
    assert not recorder._open, "spans left open after run()"
    # A segment filled in the run's last cycles becomes visible up to
    # fill_latency after the final retire; its residency span starts
    # there and is clamped to zero length by end_open().
    horizon = result.cycles + config.fill_latency + 1e-9
    for record in recorder.by_name("tc.residency"):
        assert record["ts"] + record["dur"] <= horizon


def test_cycles_identical_with_spans_on_and_off(traced_run):
    config, trace, _, traced_result = traced_run
    plain = Engine(SimConfig.from_dict(config.to_dict())).run(
        trace, "compress")
    assert plain.cycles == traced_result.cycles
    assert plain.instructions == traced_result.instructions
    session = Telemetry()   # session without spans
    with_session = Engine(
        SimConfig.from_dict(config.to_dict()),
        telemetry=session).run(trace, "compress")
    assert with_session.cycles == traced_result.cycles
    assert len(session.spans) == 0


def test_engine_without_session_has_no_spans():
    """A plain engine runs the six pipeline stages only, and the
    components it observes through hooks hold no telemetry handles."""
    engine = Engine(SimConfig.paper())
    assert [stage.name for stage in engine.stages] == [
        "fetch", "rename", "issue", "execute", "retire", "fill"]
    for component in (engine.fill_unit, engine.fill_unit.passes,
                      engine.trace_cache):
        assert not hasattr(component, "events")
        assert not hasattr(component, "spans")


class _CountingStage(PipelineStage):
    """Counts segment-built and pass-applied hook calls."""

    name = "counting"

    def __init__(self):
        self.built = 0
        self.passes = 0

    def segment_built(self, segment, cycle):
        self.built += 1

    def pass_applied(self, segment, index, name, stats, rejections,
                     cycle):
        self.passes += 1


def test_stage_appended_after_construction_sees_segment_hooks():
    trace = Executor(workloads.build("compress", 0.1)).run()
    config = SimConfig.paper(OptimizationConfig.all())
    plain = Engine(config).run(trace, "compress")

    engine = Engine(config)
    counter = _CountingStage()
    engine.stages.append(counter)
    result = engine.run(trace, "compress")

    assert result.cycles == plain.cycles
    assert counter.built == result.segments_built > 0
    assert counter.passes == (result.segments_built
                              * len(engine.fill_unit.passes.passes))
