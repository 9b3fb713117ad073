"""Observability for the whole pipeline.

Three layers, beside the counts every run records on its own (the
``{scope: value}`` dict :attr:`SimResult.telemetry
<repro.core.results.SimResult.telemetry>`, which the stages write
once the run finishes):

* a structured event stream (:mod:`repro.telemetry.events`) — typed
  events fanned out to pluggable sinks;
* span tracing (:mod:`repro.telemetry.spans`) — the segment lifecycle
  as an exportable timeline;
* cycle attribution (:mod:`repro.telemetry.attribution`) — a top-down
  classification of every pipeline cycle, which every run carries in
  ``SimResult.attribution``, with or without a session.

Usage::

    from repro import Engine, Executor, SimConfig, workloads
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    telemetry.attach_jsonl("run.jsonl")
    trace = Executor(workloads.build("li")).run()
    result = Engine(SimConfig.paper(), telemetry=telemetry).run(trace, "li")
    print(result.attribution)           # cycle classes, sum == cycles
    print(result.telemetry)             # flat {scope: value} counts
    telemetry.close()

A :class:`Telemetry` session holds the event stream and the optional
span recorder. Passing no session costs (almost) nothing: the run
still records its counts in ``SimResult.telemetry`` and its cycle
attribution in ``SimResult.attribution``, but the engine emits no
events and runs no observer stage (segment events, segment spans).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.telemetry.attribution import (
    CYCLE_CLASSES,
    diff_attribution,
    render_attribution,
)
from repro.telemetry.events import (
    NULL_EVENT_STREAM,
    EventStream,
    JsonlSink,
    MemorySink,
)
from repro.telemetry.spans import SpanRecorder


class Telemetry:
    """One observability session.

    A session may span several runs (e.g. every leg of a multi-``--opts``
    ``run``): their events share its sinks, while each
    :class:`~repro.core.results.SimResult` reports its own run's
    counts and attribution. *spans* attaches a
    :class:`~repro.telemetry.spans.SpanRecorder` capturing the segment
    lifecycle as an exportable timeline (off by default — span capture
    retains every record; ``spans`` is ``None`` without it).
    """

    def __init__(self, spans: bool = False) -> None:
        self.events = EventStream()
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder() if spans else None)
        self._sinks: List[Any] = []

    # ------------------------------------------------------------------

    def attach(self, sink: Any) -> None:
        """Attach any event sink (``handle(event)``) to the stream."""
        self.events.attach(sink)
        self._sinks.append(sink)

    def attach_jsonl(self, path: Any,
                     kinds: Optional[Iterable[str]] = None) -> JsonlSink:
        """Attach a JSONL file sink; returns it (for ``close()``)."""
        sink = JsonlSink(path, kinds=kinds)
        self.attach(sink)
        return sink

    def attach_memory(self,
                      kinds: Optional[Iterable[str]] = None) -> MemorySink:
        """Attach and return an in-memory sink."""
        sink = MemorySink(kinds=kinds)
        self.attach(sink)
        return sink

    def close(self) -> None:
        """Close every sink that supports it (flushes JSONL files)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


__all__ = ["Telemetry", "EventStream", "JsonlSink",
           "MemorySink", "CYCLE_CLASSES", "render_attribution",
           "diff_attribution", "NULL_EVENT_STREAM", "SpanRecorder"]
