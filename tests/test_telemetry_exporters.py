"""Chrome trace-event and OpenMetrics exporters."""

import json

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.telemetry import Telemetry
from repro.telemetry.events import Event
from repro.telemetry.exporters import (
    parse_openmetrics,
    render_openmetrics,
    trace_events,
    write_chrome_trace,
)
from repro.telemetry.exporters.chrometrace import (
    TIMEBASE_PIDS,
    archive_to_trace,
    events_to_span_records,
)
from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.spans import CYCLES, WALL, SpanRecorder

REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")


@pytest.fixture(scope="module")
def traced_trace_file(tmp_path_factory):
    """A full traced run exported to disk, as the CLI would do it."""
    program = workloads.build("compress", 0.2)
    trace = Executor(program).run()
    config = SimConfig.paper(OptimizationConfig.all())
    config.verify_fill = True
    telemetry = Telemetry(spans=True)
    archive = telemetry.attach_memory()
    engine = Engine(config, telemetry=telemetry)
    engine.run(trace, "compress")
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    count = write_chrome_trace(path, telemetry.spans,
                               events=archive.events,
                               metadata={"benchmark": "compress"})
    return path, count


# -- chrome trace -------------------------------------------------------

def test_trace_file_is_valid_trace_event_json(traced_trace_file):
    path, count = traced_trace_file
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert len(events) == count > 0
    assert payload["otherData"] == {"benchmark": "compress"}
    for event in events:
        for key in REQUIRED_KEYS:
            assert key in event, f"event missing {key!r}: {event}"


def test_trace_file_timestamps_monotonic_per_track(traced_trace_file):
    path, _ = traced_trace_file
    events = json.loads(path.read_text())["traceEvents"]
    last_ts = {}
    for event in events:
        if event["ph"] == "M":
            continue
        key = (event["pid"], event["tid"])
        assert event["ts"] >= last_ts.get(key, float("-inf")), (
            f"timestamps not monotonic on track {key}")
        last_ts[key] = event["ts"]


def test_trace_file_contains_lifecycle_spans(traced_trace_file):
    path, _ = traced_trace_file
    events = json.loads(path.read_text())["traceEvents"]
    names = {e["name"] for e in events}
    for want in ("segment.collect", "segment.optimize",
                 "segment.verify", "tc.insert", "tc.reuse",
                 "tc.residency", "run.finished"):
        assert want in names, f"missing {want}"


def test_timebases_map_to_distinct_processes():
    rec = SpanRecorder()
    rec.span("sim", "a", 0.0, 1.0)
    rec.span("host", "b", 0.0, 1.0, timebase=WALL)
    events = trace_events(rec.records)
    pids = {e["pid"] for e in events if e["ph"] == "X"}
    assert pids == {TIMEBASE_PIDS[CYCLES], TIMEBASE_PIDS[WALL]}
    meta = [e for e in events if e["ph"] == "M"]
    process_names = {e["pid"]: e["args"]["name"] for e in meta
                     if e["name"] == "process_name"}
    assert set(process_names) == pids
    thread_names = {(e["pid"], e["args"]["name"]) for e in meta
                    if e["name"] == "thread_name"}
    assert (TIMEBASE_PIDS[CYCLES], "sim") in thread_names
    assert (TIMEBASE_PIDS[WALL], "host") in thread_names


def test_instants_are_thread_scoped():
    rec = SpanRecorder()
    rec.instant("t", "ping", 5.0, pc=1)
    (event,) = [e for e in trace_events(rec.records) if e["ph"] == "i"]
    assert event["s"] == "t" and event["ts"] == 5.0


def test_events_to_span_records_filters_kinds():
    events = [Event("segment.built", 10, {"start_pc": 64}),
              Event("branch.mispredict", 11, {"pc": 4}),  # high-freq: out
              Event("tc.evict", 12, {"start_pc": 8})]
    records = events_to_span_records(events)
    assert [r["name"] for r in records] == ["segment.built", "tc.evict"]
    assert records[0]["track"] == "events.segment"
    assert all(r["timebase"] == CYCLES and r["kind"] == "instant"
               for r in records)


def test_archive_to_trace_roundtrip(tmp_path):
    archive = tmp_path / "events.jsonl"
    archive.write_text(
        '{"kind":"run.started","cycle":0,"benchmark":"x"}\n'
        '{"kind":"run.finished","cycle":99,"benchmark":"x"}\n')
    out = tmp_path / "trace.json"
    count = archive_to_trace(archive, out)
    events = json.loads(out.read_text())["traceEvents"]
    assert len(events) == count
    names = {e["name"] for e in events}
    assert {"run.started", "run.finished"} <= names


# -- openmetrics --------------------------------------------------------

def _populated_registry() -> TelemetryRegistry:
    registry = TelemetryRegistry()
    registry.counter("fetch.tc.hits").add(41)
    registry.counter("fetch.tc.hits").add()
    registry.gauge("window.occupancy").set(17)
    hist = registry.histogram("fillunit.segment.length")
    for value in (1, 3, 9, 15, 15):
        hist.observe(value)
    return registry


def test_openmetrics_rendering_shape():
    text = render_openmetrics(_populated_registry())
    assert text.endswith("# EOF\n")
    assert "# TYPE repro_fetch_tc_hits counter" in text
    assert "repro_fetch_tc_hits_total 42" in text
    assert "# TYPE repro_window_occupancy gauge" in text
    assert "repro_window_occupancy 17" in text
    assert "# TYPE repro_fillunit_segment_length histogram" in text
    assert 'repro_fillunit_segment_length_bucket{le="+Inf"} 5' in text
    # HELP keeps the original dotted scope (reversible mapping).
    assert "# HELP repro_fetch_tc_hits scope fetch.tc.hits" in text


def test_openmetrics_roundtrip():
    registry = _populated_registry()
    parsed = parse_openmetrics(render_openmetrics(registry))
    assert parsed["repro_fetch_tc_hits_total"] == 42
    assert parsed["repro_window_occupancy"] == 17
    hist = parsed["repro_fillunit_segment_length"]
    assert hist["count"] == 5 and hist["sum"] == 43
    assert hist["buckets"]["+Inf"] == 5
    # Cumulative buckets are monotone nondecreasing.
    finite = [v for k, v in sorted(
        ((k, v) for k, v in hist["buckets"].items() if k != "+Inf"),
        key=lambda kv: int(kv[0]))]
    assert finite == sorted(finite)
    assert finite[-1] <= hist["buckets"]["+Inf"]


def test_openmetrics_roundtrip_full_run():
    program = workloads.build("compress", 0.1)
    trace = Executor(program).run()
    telemetry = Telemetry()
    Engine(SimConfig.paper(OptimizationConfig.all()),
           telemetry=telemetry).run(trace, "compress")
    text = render_openmetrics(telemetry.registry)
    parsed = parse_openmetrics(text)
    flat = telemetry.registry.flat()
    for scope, value in flat.items():
        name = "repro_" + scope.replace(".", "_")
        if isinstance(value, dict):
            assert parsed[name]["count"] == value["count"]
        elif name + "_total" in parsed:
            assert parsed[name + "_total"] == value
        else:
            assert parsed[name] == value


def test_parse_requires_eof():
    with pytest.raises(ValueError, match="EOF"):
        parse_openmetrics("repro_x_total 1\n")
