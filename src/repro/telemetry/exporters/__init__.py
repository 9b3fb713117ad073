"""Telemetry exporters: serialize sessions for external tooling.

:mod:`repro.telemetry.exporters.chrometrace` writes Chrome trace-event
JSON for ``ui.perfetto.dev`` / ``chrome://tracing``: span timelines on
a simulated-cycle timebase (pipeline/segment lifecycle) and a
wall-clock timebase (execution-service jobs).
"""

from __future__ import annotations

from repro.telemetry.exporters.chrometrace import (
    trace_events,
    write_chrome_trace,
)

__all__ = ["trace_events", "write_chrome_trace"]
