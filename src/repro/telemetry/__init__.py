"""Observability for the whole pipeline.

One :class:`Telemetry` session bundles the three layers:

* a hierarchical metric registry (:mod:`repro.telemetry.registry`) —
  named-scope counters, gauges and histograms;
* a structured event stream (:mod:`repro.telemetry.events`) — typed
  events fanned out to pluggable sinks;
* cycle attribution (:mod:`repro.telemetry.attribution`) — a top-down
  classification of every pipeline cycle, computed by an observer
  stage the engine appends to its stage list.

Usage::

    from repro import SimConfig, Simulator, workloads
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    telemetry.attach_jsonl("run.jsonl")
    result = Simulator(SimConfig.paper(),
                       telemetry=telemetry).run(workloads.build("li"))
    print(result.attribution)           # cycle classes, sum == cycles
    print(result.telemetry)             # flat {scope: value} snapshot
    telemetry.close()

Passing no session costs (almost) nothing: the pipeline still keeps
its own registry (the single source of truth behind ``SimResult``'s
counters) but emits no events and runs no observer stage (cycle
attribution, segment events, segment spans).
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
from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.spans import NULL_SPANS, SpanRecorder


class Telemetry:
    """One observability session.

    A session may span several runs (e.g. every leg of a ``compare``);
    registry counters then accumulate across them, while each
    :class:`~repro.core.results.SimResult` still reports per-run
    deltas. *attribution* appends the cycle-accounting stage to every
    engine built with this session; *spans* attaches a
    :class:`~repro.telemetry.spans.SpanRecorder` capturing the segment
    lifecycle and execution-service jobs as exportable timelines (off
    by default — span capture retains every record).
    """

    def __init__(self, attribution: bool = True,
                 spans: bool = False) -> None:
        self.registry = TelemetryRegistry()
        self.events = EventStream()
        self.attribution = attribution
        self.spans: Any = SpanRecorder() if spans else NULL_SPANS
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


__all__ = ["Telemetry", "TelemetryRegistry", "EventStream", "JsonlSink",
           "MemorySink", "CYCLE_CLASSES", "render_attribution",
           "diff_attribution", "NULL_EVENT_STREAM", "SpanRecorder",
           "NULL_SPANS"]
