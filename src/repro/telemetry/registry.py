"""Hierarchical metric registry: counters, gauges, histograms.

Every instrumented component records against dot-separated scopes
(``fetch.tc.hits``, ``fillunit.opts.reassoc.applied``,
``backend.bypass.cross_cluster``). The registry holds every run
statistic: at the end of a run each pipeline stage adds its counts to
it (the same counts it writes to
:class:`~repro.core.results.SimResult`'s counter fields), and the full
per-scope snapshot is folded into ``SimResult.telemetry``.

**Determinism**, which the timing model depends on: ``flat()`` and
``snapshot()`` iterate scopes in sorted order, so two identical runs
produce identical snapshots.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional

from repro.errors import ConfigError

_SCOPE_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("scope", "value")

    kind = "counter"

    def __init__(self, scope: str) -> None:
        self.scope = scope
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def snapshot_value(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("scope", "value")

    kind = "gauge"

    def __init__(self, scope: str) -> None:
        self.scope = scope
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot_value(self) -> float:
        return self.value


class Histogram:
    """A distribution summary over non-negative integer observations.

    Keeps count/total/min/max plus power-of-two bucket counts: bucket
    ``k`` holds observations with ``bit_length() == k`` (i.e. values in
    ``[2^(k-1), 2^k)``; zero lands in bucket 0).
    """

    __slots__ = ("scope", "count", "total", "min", "max", "buckets")

    kind = "histogram"

    def __init__(self, scope: str) -> None:
        self.scope = scope
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot_value(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(k): self.buckets[k]
                        for k in sorted(self.buckets)},
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class TelemetryRegistry:
    """Named-scope metric storage with get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    # ------------------------------------------------------------------

    def _get(self, scope: str, kind: str) -> Any:
        metric = self._metrics.get(scope)
        if metric is None:
            if not _SCOPE_RE.match(scope):
                raise ConfigError(
                    f"invalid telemetry scope {scope!r}: expected "
                    "dot-separated [a-z0-9_] segments")
            metric = _KINDS[kind](scope)
            self._metrics[scope] = metric
        elif metric.kind != kind:
            raise ConfigError(
                f"telemetry scope {scope!r} already registered as a "
                f"{metric.kind}, not a {kind}")
        return metric

    def counter(self, scope: str) -> Counter:
        return self._get(scope, "counter")

    def gauge(self, scope: str) -> Gauge:
        return self._get(scope, "gauge")

    def histogram(self, scope: str) -> Histogram:
        return self._get(scope, "histogram")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, scope: str) -> bool:
        return scope in self._metrics

    def value(self, scope: str, default: Any = 0) -> Any:
        """The current value of one scope (0 when never registered)."""
        metric = self._metrics.get(scope)
        return default if metric is None else metric.snapshot_value()

    def flat(self) -> Dict[str, Any]:
        """``{scope: value}`` over every registered metric, sorted by
        scope — the JSON-safe form folded into ``SimResult.telemetry``."""
        return {scope: self._metrics[scope].snapshot_value()
                for scope in sorted(self._metrics)}

    def snapshot(self) -> Dict[str, Any]:
        """The same data as :meth:`flat`, nested by scope segment:
        ``fetch.tc.hits`` becomes ``{"fetch": {"tc": {"hits": N}}}``."""
        tree: Dict[str, Any] = {}
        for scope, value in self.flat().items():
            node = tree
            parts = scope.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        return tree


__all__ = ["Counter", "Gauge", "Histogram", "TelemetryRegistry"]
