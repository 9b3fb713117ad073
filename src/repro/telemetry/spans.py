"""Span tracing: timed intervals over the segment lifecycle.

Counters say *how often*; spans say *when and for how long*. A
:class:`SpanRecorder` collects named, nestable intervals on named
tracks, each tagged with one of two timebases:

* :data:`CYCLES` — simulated time. The segment lifecycle lives here:
  fill-unit collection windows, the fill-pipeline optimize/verify
  window (subdivided per pass), trace-cache residency spans, and
  insert/reuse/evict instants.
* :data:`WALL` — host time in microseconds since the recorder was
  created. The execution layer's job lifecycle lives here: submit,
  cache probe, worker execution, result handling.

Spans are export-format-agnostic records; the Chrome-trace/Perfetto
serialization lives in :mod:`repro.telemetry.exporters.chrometrace`.

Cost model: recording is allocation-light (one dict per finished
span), and a *detached* recorder — :data:`NULL_SPANS` — is a shared
null object whose methods are no-ops, like the null event stream.
The segment lifecycle is recorded by an observer stage that the
engine appends only when the session captures spans; simulated cycle
counts are bit-for-bit identical with spans on or off (spans only
observe, never sequence).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

#: timebase tag: timestamps are simulated cycles.
CYCLES = "cycles"
#: timebase tag: timestamps are host microseconds (recorder-relative).
WALL = "wall"

TIMEBASES = (CYCLES, WALL)


class SpanHandle:
    """One open span; ``end()`` closes it, ``annotate()`` adds args."""

    __slots__ = ("recorder", "track", "timebase", "name", "start",
                 "args", "closed")

    def __init__(self, recorder: "SpanRecorder", track: str,
                 timebase: str, name: str, start: float,
                 args: Dict[str, Any]) -> None:
        self.recorder = recorder
        self.track = track
        self.timebase = timebase
        self.name = name
        self.start = start
        self.args = args
        self.closed = False

    def annotate(self, **args: Any) -> "SpanHandle":
        """Attach key/value arguments to the span (chainable)."""
        self.args.update(args)
        return self

    def end(self, ts: float, **args: Any) -> None:
        """Close the span at timestamp *ts* (same timebase as begin)."""
        if args:
            self.args.update(args)
        self.recorder._close(self, ts)


class _NullSpanHandle:
    """Handle issued by the null recorder: everything is a no-op."""

    __slots__ = ()

    def annotate(self, **args: Any) -> "_NullSpanHandle":
        return self

    def end(self, ts: float, **args: Any) -> None:
        pass


NULL_SPAN_HANDLE = _NullSpanHandle()


class SpanRecorder:
    """Collects finished spans and instants across tracks.

    A finished record is a plain dict::

        {"track": str, "timebase": CYCLES|WALL, "kind": "span"|"instant",
         "name": str, "ts": float, "dur": float, "args": dict}

    ``dur`` is 0.0 for instants. Records are kept in completion order;
    exporters sort per track as their format requires.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._open: List[SpanHandle] = []
        self._wall_origin = time.perf_counter()

    # -- clocks ---------------------------------------------------------

    def now_wall(self) -> float:
        """Host microseconds since this recorder was created."""
        return (time.perf_counter() - self._wall_origin) * 1e6

    # -- recording ------------------------------------------------------

    def begin(self, track: str, name: str, ts: float,
              timebase: str = CYCLES, **args: Any) -> SpanHandle:
        """Open a span; close it with ``handle.end(ts)``."""
        handle = SpanHandle(self, track, timebase, name, float(ts), args)
        self._open.append(handle)
        return handle

    def span(self, track: str, name: str, ts: float, duration: float,
             timebase: str = CYCLES, **args: Any) -> None:
        """Record one already-complete span."""
        self.records.append({
            "track": track, "timebase": timebase, "kind": "span",
            "name": name, "ts": float(ts),
            "dur": max(float(duration), 0.0), "args": args})

    def instant(self, track: str, name: str, ts: float,
                timebase: str = CYCLES, **args: Any) -> None:
        """Record a point event (zero duration)."""
        self.records.append({
            "track": track, "timebase": timebase, "kind": "instant",
            "name": name, "ts": float(ts), "dur": 0.0, "args": args})

    def _close(self, handle: SpanHandle, ts: float) -> None:
        if handle.closed:
            return
        handle.closed = True
        try:
            self._open.remove(handle)
        except ValueError:
            pass
        self.span(handle.track, handle.name, handle.start,
                  float(ts) - handle.start, handle.timebase,
                  **handle.args)

    def end_open(self, ts: float, timebase: str = CYCLES) -> int:
        """Close every still-open span on *timebase* at *ts* (e.g.
        trace-cache residency spans at the end of a run); returns how
        many were closed."""
        victims = [h for h in self._open if h.timebase == timebase]
        for handle in victims:
            handle.end(ts)
        return len(victims)

    # -- inspection -----------------------------------------------------

    def by_name(self, name: str) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["name"] == name]

    def tracks(self) -> List[str]:
        """Track names in first-recorded order (deterministic)."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record["track"], None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.records)


class _NullSpanRecorder:
    """The detached fast path: every operation is a no-op."""

    enabled = False
    records: List[Dict[str, Any]] = []

    def now_wall(self) -> float:
        return 0.0

    def begin(self, track: str, name: str, ts: float,
              timebase: str = CYCLES, **args: Any) -> _NullSpanHandle:
        return NULL_SPAN_HANDLE

    def span(self, track: str, name: str, ts: float, duration: float,
             timebase: str = CYCLES, **args: Any) -> None:
        pass

    def instant(self, track: str, name: str, ts: float,
                timebase: str = CYCLES, **args: Any) -> None:
        pass

    def end_open(self, ts: float, timebase: str = CYCLES) -> int:
        return 0

    def by_name(self, name: str) -> List[Dict[str, Any]]:
        return []

    def tracks(self) -> List[str]:
        return []

    def __len__(self) -> int:
        return 0


NULL_SPANS = _NullSpanRecorder()


__all__ = ["CYCLES", "WALL", "TIMEBASES", "SpanHandle", "SpanRecorder",
           "NULL_SPANS", "NULL_SPAN_HANDLE"]
