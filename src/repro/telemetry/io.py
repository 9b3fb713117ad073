"""Shared loading of JSONL telemetry event archives.

One loader for every consumer of ``run --events`` files — the
``.jsonl`` mode of ``tools/compare_runs.py`` (the attribution diff of
two archives) and the Chrome-trace exporter — with uniform
malformed-line reporting: a bad line raises
:class:`MalformedLineError` naming the file, the 1-based line number
and a snippet, or (``on_error="skip"``/``"warn"``) is counted and
skipped so one truncated line does not discard a whole archive.
"""

from __future__ import annotations

import json
import sys
from typing import Any, List, Tuple

from repro.telemetry.events import RUN_FINISHED, Event


class MalformedLineError(ValueError):
    """A JSONL archive line that could not be decoded."""

    def __init__(self, path: str, line_no: int, snippet: str,
                 reason: str) -> None:
        self.path = path
        self.line_no = line_no
        self.snippet = snippet
        self.reason = reason
        super().__init__(
            f"{path}:{line_no}: malformed event line ({reason}): "
            f"{snippet!r}")


def read_events(path: Any, on_error: str = "raise") -> List[Event]:
    """Load a JSONL event archive back into :class:`Event` objects.

    *on_error* is one of ``"raise"`` (default), ``"warn"`` (report the
    bad line on stderr and continue) or ``"skip"`` (silently drop it).
    A line is malformed when it is not a JSON object or lacks the
    ``kind`` field.
    """
    if on_error not in ("raise", "warn", "skip"):
        raise ValueError(f"unknown on_error mode {on_error!r}")
    events: List[Event] = []
    name = str(path)
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            reason = None
            payload: Any = None
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                reason = f"invalid JSON: {exc.msg}"
            if reason is None and not isinstance(payload, dict):
                reason = "not a JSON object"
            if reason is None and "kind" not in payload:
                reason = "missing 'kind' field"
            if reason is not None:
                snippet = line if len(line) <= 60 else line[:57] + "..."
                error = MalformedLineError(name, line_no, snippet, reason)
                if on_error == "raise":
                    raise error
                if on_error == "warn":
                    print(f"warning: {error}", file=sys.stderr)
                continue
            kind = payload.pop("kind")
            cycle = payload.pop("cycle", 0)
            events.append(Event(kind, cycle, payload))
    return events


def load_attribution_runs(path: Any, on_error: str = "raise"
                          ) -> List[Tuple[str, int, dict]]:
    """``(label, cycles, attribution)`` per finished run in *path* —
    the shared form behind the attribution report and run comparison
    tools."""
    runs: List[Tuple[str, int, dict]] = []
    for event in read_events(path, on_error=on_error):
        if event.kind != RUN_FINISHED:
            continue
        data = event.data
        label = f"{data.get('benchmark', '?')}/{data.get('label', '?')}"
        runs.append((label, data.get("cycles", 0),
                     data.get("attribution") or {}))
    return runs


__all__ = ["MalformedLineError", "read_events", "load_attribution_runs"]
