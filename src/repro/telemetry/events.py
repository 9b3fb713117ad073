"""Structured event stream.

Pipeline and observer stages emit typed events — a segment finalized
by the fill unit, an optimization applied or rejected (with its
reason), a branch promotion, a trace cache misfetch, a checkpoint
repair — into one :class:`EventStream` per run. The stream forwards
every event to its attached sinks (a JSONL file or an in-memory list);
sinks are the one way to keep events.

Event kinds and payload schemas are documented in
``docs/observability.md``. Per-instruction observation is not an
event: it is a pipeline stage appended to the engine's stage list
(tests append one that records every instruction's timeline), and the
cycle attribution every run carries is built by the retire stage.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple

# -- event kinds --------------------------------------------------------

RUN_STARTED = "run.started"
RUN_FINISHED = "run.finished"
SEGMENT_BUILT = "segment.built"
SEGMENT_DEDUPED = "segment.deduped"
OPT_APPLIED = "opt.applied"
OPT_REJECTED = "opt.rejected"
BRANCH_PROMOTED = "branch.promoted"
BRANCH_MISPREDICT = "branch.mispredict"
FETCH_MISFETCH = "fetch.misfetch"
CHECKPOINT_REPAIR = "rename.checkpoint_repair"
TC_EVICT = "tc.evict"
VERIFY_VIOLATION = "verify.violation"


class Event(NamedTuple):
    """One telemetry event: a kind, the cycle it occurred, and a
    kind-specific payload."""

    kind: str
    cycle: int
    data: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """The flat JSON-safe form written by :class:`JsonlSink`."""
        payload: Dict[str, Any] = {"kind": self.kind, "cycle": self.cycle}
        payload.update(self.data)
        return payload


# -- sinks --------------------------------------------------------------

class MemorySink:
    """Retains every delivered event in a list (tests, notebooks)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def handle(self, event: Event) -> None:
        self.events.append(event)

    def by_kind(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]


class JsonlSink:
    """Writes one JSON object per line to *path* (or an open handle)."""

    def __init__(self, path: Any) -> None:
        if hasattr(path, "write"):
            self.path = getattr(path, "name", "<stream>")
            self._handle = path
            self._owns = False
        else:
            self.path = path
            self._handle = open(path, "w")
            self._owns = True
        self.written = 0

    def handle(self, event: Event) -> None:
        json.dump(event.to_dict(), self._handle,
                  separators=(",", ":"), sort_keys=True)
        self._handle.write("\n")
        self.written += 1

    def close(self) -> None:
        if self._owns:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- the stream ---------------------------------------------------------

class EventStream:
    """Fan-out of emitted events to the attached sinks."""

    def __init__(self) -> None:
        self._sinks: List[Any] = []
        self.emitted = 0

    def attach(self, sink: Any) -> None:
        """Register *sink* (anything with ``handle(event)``)."""
        self._sinks.append(sink)

    def emit(self, kind: str, cycle: int, **data: Any) -> None:
        event = Event(kind, cycle, data)
        self.emitted += 1
        for sink in self._sinks:
            sink.handle(event)


class _NullEventStream:
    """The stream of a run without a session: every emit is a no-op."""

    emitted = 0

    def attach(self, sink: Any) -> None:
        raise RuntimeError("cannot attach a sink to the null event "
                           "stream; attach a telemetry session first")

    def emit(self, kind: str, cycle: int, **data: Any) -> None:
        pass


NULL_EVENT_STREAM = _NullEventStream()

__all__ = ["Event", "EventStream", "MemorySink", "JsonlSink",
           "NULL_EVENT_STREAM", "RUN_STARTED", "RUN_FINISHED",
           "SEGMENT_BUILT", "SEGMENT_DEDUPED", "OPT_APPLIED",
           "OPT_REJECTED", "BRANCH_PROMOTED", "BRANCH_MISPREDICT",
           "FETCH_MISFETCH", "CHECKPOINT_REPAIR", "TC_EVICT",
           "VERIFY_VIOLATION"]
