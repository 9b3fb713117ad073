"""Span tracing: timed intervals over the segment lifecycle.

Counters say *how often*; spans say *when and for how long*. A
:class:`SpanRecorder` collects named, nestable intervals on named
tracks, each tagged with one of two timebases:

* :data:`CYCLES` — simulated time. The segment lifecycle lives here:
  fill-unit collection windows, the fill-pipeline optimize/verify
  window (subdivided per pass), trace-cache residency spans, and
  insert/reuse/evict instants.
* :data:`WALL` — host time in microseconds since the recorder was
  created (:meth:`SpanRecorder.now_wall`), for callers that time the
  host around the simulator's entry points.

Spans are export-format-agnostic records; the Chrome-trace/Perfetto
serialization lives in :mod:`repro.telemetry.exporters.chrometrace`.

Cost model: recording is allocation-light (one tuple per finished
span; the record dicts are built once, the first time
:attr:`SpanRecorder.records` is read). The segment lifecycle is
recorded by an observer stage that the engine appends only when the
session captures spans; a session without spans has no recorder at
all. Simulated cycle counts are bit-for-bit identical with spans on or
off (spans only observe, never sequence).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

#: timebase tag: timestamps are simulated cycles.
CYCLES = "cycles"
#: timebase tag: timestamps are host microseconds (recorder-relative).
WALL = "wall"


class SpanRecorder:
    """Collects finished spans and instants across tracks.

    A finished record, as :attr:`records` returns it, is a plain dict::

        {"track": str, "timebase": CYCLES|WALL, "kind": "span"|"instant",
         "name": str, "ts": float, "dur": float, "args": dict}

    ``dur`` is 0.0 for instants. Records are kept in completion order;
    exporters sort per track as their format requires.
    """

    def __init__(self) -> None:
        #: records not yet read, as ``(track, timebase, kind, name, ts,
        #: dur, args)`` tuples
        self._pending: List[Tuple[Any, ...]] = []
        self._records: List[Dict[str, Any]] = []
        self._wall_origin = time.perf_counter()

    # -- clocks ---------------------------------------------------------

    def now_wall(self) -> float:
        """Host microseconds since this recorder was created."""
        return (time.perf_counter() - self._wall_origin) * 1e6

    # -- recording ------------------------------------------------------

    def span(self, track: str, name: str, ts: float, duration: float,
             timebase: str = CYCLES, **args: Any) -> None:
        """Record one already-complete span."""
        self._pending.append(
            (track, timebase, "span", name, ts, duration, args))

    def instant(self, track: str, name: str, ts: float,
                timebase: str = CYCLES, **args: Any) -> None:
        """Record a point event (zero duration)."""
        self._pending.append(
            (track, timebase, "instant", name, ts, 0.0, args))

    # -- inspection -----------------------------------------------------

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Every finished record as a dict, in completion order. Each
        dict is built once, the first time it is read."""
        if self._pending:
            self._records.extend(
                {"track": track, "timebase": timebase, "kind": kind,
                 "name": name, "ts": float(ts),
                 "dur": max(float(dur), 0.0), "args": args}
                for track, timebase, kind, name, ts, dur, args
                in self._pending)
            self._pending = []
        return self._records

    def by_name(self, name: str) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["name"] == name]

    def tracks(self) -> List[str]:
        """Track names in first-recorded order (deterministic)."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record["track"], None)
        return list(seen)

    def __len__(self) -> int:
        return len(self._records) + len(self._pending)


__all__ = ["CYCLES", "WALL", "SpanRecorder"]
