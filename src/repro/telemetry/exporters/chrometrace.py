"""Chrome trace-event export (Perfetto / chrome://tracing).

Serializes a :class:`~repro.telemetry.spans.SpanRecorder` (and,
optionally, the session's structured events) into the Chrome trace-event
JSON object format: load the file in https://ui.perfetto.dev to see
the segment lifecycle as a timeline.

Timebase mapping: the format has one timestamp unit (microseconds), so
the two timebases become two *processes* — pid 1 carries the
simulated-cycle tracks (1 "us" == 1 cycle), pid 2 the wall-clock
tracks (real microseconds). Each recorder track becomes a named thread
(tid) in its process; spans are complete events (``ph: "X"``, nested
by containment), instants are ``ph: "i"``. Perfetto renders the two
processes as separate groups, so mixed timebases never share an axis.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.telemetry.spans import CYCLES, WALL

#: process id per timebase (see module docstring).
TIMEBASE_PIDS = {CYCLES: 1, WALL: 2}

_PROCESS_NAMES = {
    TIMEBASE_PIDS[CYCLES]: "simulated time (1us = 1 cycle)",
    TIMEBASE_PIDS[WALL]: "host time",
}

#: event kinds worth showing as trace instants
#: (low-frequency lifecycle markers; the high-frequency kinds already
#: have first-class spans).
ARCHIVE_INSTANT_KINDS = frozenset((
    "run.started", "run.finished", "segment.built", "segment.deduped",
    "branch.promoted", "tc.evict", "verify.violation",
))


def _thread_ids(records: List[Dict[str, Any]]) -> Dict[tuple, int]:
    """Stable ``(pid, track) -> tid`` assignment, per-process, in
    first-appearance order."""
    tids: Dict[tuple, int] = {}
    next_tid: Dict[int, int] = {}
    for record in records:
        pid = TIMEBASE_PIDS[record["timebase"]]
        key = (pid, record["track"])
        if key not in tids:
            next_tid[pid] = next_tid.get(pid, 0) + 1
            tids[key] = next_tid[pid]
    return tids


def trace_events(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Convert span-recorder records to trace-event dicts.

    Every returned event carries the format's required keys (``ph``,
    ``ts``, ``pid``, ``tid``, ``name``); events are sorted by
    ``(pid, tid, ts)`` so timestamps are monotonic per track.
    """
    tids = _thread_ids(records)
    out: List[Dict[str, Any]] = []
    for pid, name in sorted(_PROCESS_NAMES.items()):
        if any(p == pid for p, _ in tids):
            out.append({"ph": "M", "ts": 0, "pid": pid, "tid": 0,
                        "name": "process_name",
                        "args": {"name": name}})
    for (pid, track), tid in sorted(tids.items()):
        out.append({"ph": "M", "ts": 0, "pid": pid, "tid": tid,
                    "name": "thread_name", "args": {"name": track}})
    body: List[Dict[str, Any]] = []
    for record in records:
        pid = TIMEBASE_PIDS[record["timebase"]]
        tid = tids[(pid, record["track"])]
        event: Dict[str, Any] = {
            "ts": record["ts"], "pid": pid, "tid": tid,
            "name": record["name"], "cat": record["track"],
            "args": record["args"],
        }
        if record["kind"] == "instant":
            event["ph"] = "i"
            event["s"] = "t"            # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = record["dur"]
        body.append(event)
    body.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return out + body


def events_to_span_records(events: List[Any]) -> List[Dict[str, Any]]:
    """Lower a structured-event list (a session's memory sink) to
    span-recorder instant records on one simulated-time track per
    event kind family."""
    records: List[Dict[str, Any]] = []
    for event in events:
        if event.kind not in ARCHIVE_INSTANT_KINDS:
            continue
        track = "events." + event.kind.split(".")[0]
        args = {k: v for k, v in event.data.items()
                if not isinstance(v, (dict, list))}
        records.append({"track": track, "timebase": CYCLES,
                        "kind": "instant", "name": event.kind,
                        "ts": float(event.cycle), "dur": 0.0,
                        "args": args})
    return records


def write_chrome_trace(path: Any, recorder: Any,
                       events: Optional[List[Any]] = None,
                       metadata: Optional[Dict[str, Any]] = None) -> int:
    """Write *recorder*'s spans (plus optional session *events*) as a
    Chrome trace-event JSON file; returns the trace-event count."""
    records = list(recorder.records)
    if events:
        records += events_to_span_records(events)
    payload: Dict[str, Any] = {
        "traceEvents": trace_events(records),
        "displayTimeUnit": "ms",
    }
    if metadata:
        payload["otherData"] = metadata
    with open(path, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    return len(payload["traceEvents"])


__all__ = ["trace_events", "events_to_span_records",
           "write_chrome_trace", "TIMEBASE_PIDS",
           "ARCHIVE_INSTANT_KINDS"]
