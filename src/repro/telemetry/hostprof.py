"""Host-time profiler: where the simulator's own wall-time goes.

The cycle attribution explains *simulated* time; this module explains
*host* time — the prerequisite ROADMAP names for segment-level timing
replay ("find where time actually goes") and for sizing a simulation
service. A :class:`HostProfiler` accumulates wall-clock seconds into
named scopes via lightweight ``perf_counter`` pairs, and knows how to
instrument a replay engine without touching its code: it wraps each
:class:`~repro.core.stages.base.PipelineStage` (per-stage attribution
of the stage loop) and each fill-unit optimization pass (per-pass
attribution of fill work) in delegating proxies.

The wrappers forward every hook faithfully, so simulated cycle counts
are bit-for-bit identical with or without the profiler attached; only
wall time changes (instrumented replays run slower — that is the cost
of asking). An unattached engine pays nothing.

Reported by ``repro run --hostprof FILE.json``, which prints the
table and writes it to FILE.json.
"""

from __future__ import annotations

from contextlib import contextmanager
import time
from typing import Any, Dict, Iterator, List, Optional

#: schema tag for serialized profiles (``run --hostprof`` files).
HOSTPROF_SCHEMA_VERSION = 1


class HostProfiler:
    """Scoped wall-time accumulation."""

    def __init__(self) -> None:
        #: scope -> [calls, seconds]
        self.totals: Dict[str, List[float]] = {}

    # -- recording ------------------------------------------------------

    def add(self, scope: str, seconds: float, calls: int = 1) -> None:
        entry = self.totals.get(scope)
        if entry is None:
            self.totals[scope] = [float(calls), seconds]
        else:
            entry[0] += calls
            entry[1] += seconds

    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    # -- engine instrumentation -----------------------------------------

    def attach(self, engine: Any) -> None:
        """Instrument *engine* in place: every pipeline stage is timed
        under ``stage.<name>`` and every fill-unit pass under
        ``fillpass.<name>``. Attach before ``run()``."""
        engine.stages = [_ProfiledStage(stage, self)
                         for stage in engine.stages]
        fill_unit = getattr(engine, "fill_unit", None)
        if fill_unit is not None:
            manager = fill_unit.passes
            manager.passes = [_TimedPass(opt_pass, self)
                              for opt_pass in manager.passes]

    # -- reporting ------------------------------------------------------

    def total_seconds(self, prefix: str = "") -> float:
        return sum(seconds for scope, (_, seconds) in self.totals.items()
                   if scope.startswith(prefix))

    def shares(self, prefix: str = "") -> Dict[str, float]:
        """``{scope: fraction}`` over the scopes matching *prefix*,
        normalized to sum to 1.0 (empty when nothing matched)."""
        matched = {scope: seconds
                   for scope, (_, seconds) in self.totals.items()
                   if scope.startswith(prefix)}
        total = sum(matched.values())
        if total <= 0.0:
            return {scope: 0.0 for scope in sorted(matched)}
        return {scope: seconds / total
                for scope, seconds in sorted(matched.items())}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form, as ``run --hostprof`` writes it."""
        return {
            "schema": HOSTPROF_SCHEMA_VERSION,
            "scopes": {
                scope: {"calls": int(calls), "seconds": seconds}
                for scope, (calls, seconds)
                in sorted(self.totals.items())
            },
        }

    def render(self, title: str = "host-time profile") -> str:
        """An aligned table, scopes sorted by time descending.

        Shares are of the ``stage.*`` total, the whole replay (of all
        scopes when there is no stage scope). A ``fillpass.*`` scope
        is time already inside ``stage.fill``, because the passes run
        in the fill stage's ``process``; its row says so."""
        rows = sorted(self.totals.items(), key=lambda kv: -kv[1][1])
        total = (self.total_seconds("stage.") or self.total_seconds()
                 or 1.0)
        lines = [title,
                 f"  {'scope':28s} {'calls':>10s} {'seconds':>9s} "
                 f"{'share':>6s}"]
        for scope, (calls, seconds) in rows:
            note = (" (in stage.fill)" if scope.startswith("fillpass.")
                    else "")
            lines.append(f"  {scope:28s} {int(calls):10d} "
                         f"{seconds:9.4f} {100.0 * seconds / total:5.1f}%"
                         f"{note}")
        return "\n".join(lines)


class _ProfiledStage:
    """Delegating proxy timing one pipeline stage's hooks.

    Every hook is folded into the same scope, so a stage's scope is
    its whole cost: ``process`` for a pipeline stage, ``end_group``
    for an observer.
    """

    def __init__(self, stage: Any, profiler: HostProfiler) -> None:
        self._stage = stage
        self._profiler = profiler
        self.name = stage.name
        self._scope = f"stage.{stage.name}"

    def begin_run(self, state: Any) -> None:
        start = time.perf_counter()
        self._stage.begin_run(state)
        self._profiler.add(self._scope, time.perf_counter() - start)

    def begin_group(self, state: Any) -> None:
        start = time.perf_counter()
        self._stage.begin_group(state)
        self._profiler.add(self._scope, time.perf_counter() - start)

    def process(self, state: Any, entry: Any) -> None:
        start = time.perf_counter()
        self._stage.process(state, entry)
        self._profiler.add(self._scope, time.perf_counter() - start)

    def end_group(self, state: Any) -> None:
        start = time.perf_counter()
        self._stage.end_group(state)
        self._profiler.add(self._scope, time.perf_counter() - start)

    def finish_run(self, state: Optional[Any], result: Any) -> None:
        start = time.perf_counter()
        self._stage.finish_run(state, result)
        self._profiler.add(self._scope, time.perf_counter() - start)

    def __getattr__(self, attr: str) -> Any:
        # Component attributes some stages expose (e.g. the fetch
        # stage's trace cache) stay reachable through the proxy.
        return getattr(self._stage, attr)


class _TimedPass:
    """Delegating proxy timing one optimization pass's ``apply``."""

    def __init__(self, opt_pass: Any, profiler: HostProfiler) -> None:
        self._pass = opt_pass
        self._profiler = profiler
        self.name = opt_pass.name
        self.surface = opt_pass.surface
        self._scope = f"fillpass.{opt_pass.name}"

    def apply(self, segment: Any, ctx: Any) -> Dict[str, int]:
        start = time.perf_counter()
        stats: Dict[str, int] = self._pass.apply(segment, ctx)
        self._profiler.add(self._scope, time.perf_counter() - start)
        return stats


__all__ = ["HostProfiler", "HOSTPROF_SCHEMA_VERSION"]
