"""Parameter sweeps: sensitivity studies over machine knobs.

The paper sweeps one knob (fill-unit latency, Figure 8); a credible
release wants the neighbouring sensitivity studies too — how the
combined optimization benefit responds to cluster geometry, bypass
cost, window size, or trace cache capacity. Each sweep runs
baseline-vs-optimized at every point and reports the improvement
curve, reusing the execution service's cached traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.analysis.stats import arithmetic_mean
from repro.core.config import SimConfig
from repro.exec.grid import sweep_grid
from repro.exec.service import ExecutionService
from repro.harness.report import render_table
from repro.tracecache.cache import TraceCacheConfig


@dataclass
class SweepResult:
    """One sweep: improvement (and IPC pair) per knob value."""

    name: str
    knob: str
    points: list                    # knob values, in order
    rows: dict = field(default_factory=dict)
    # rows[benchmark] = [(baseline_ipc, optimized_ipc), ...] per point

    def improvements(self, benchmark: str) -> list:
        return [100.0 * (opt - base) / base if base else 0.0
                for base, opt in self.rows[benchmark]]

    def mean_improvements(self) -> list:
        """Mean improvement across benchmarks, per knob point."""
        return [arithmetic_mean(
            self.improvements(bench)[idx] for bench in self.rows)
            for idx in range(len(self.points))]

    def render(self) -> str:
        headers = ["benchmark"] + [f"{self.knob}={p}"
                                   for p in self.points]
        body = [[bench] + [round(v, 1) for v in self.improvements(bench)]
                for bench in self.rows]
        body.append(["mean"] + [round(v, 1)
                                for v in self.mean_improvements()])
        return render_table(headers, body,
                            title=f"Sweep: {self.name} "
                                  f"(combined-optimization gain, %)")


def _run_sweep(service: ExecutionService, name: str, knob: str,
               points: list, make_config: Callable,
               benchmarks: list) -> SweepResult:
    result = SweepResult(name=name, knob=knob, points=list(points))
    jobs = sweep_grid(benchmarks, points, make_config)
    results = service.run_many(jobs)
    # sweep_grid's layout contract: benchmark-major, points in order,
    # baseline immediately before optimized.
    per_bench = 2 * len(points)
    for b_idx, bench in enumerate(benchmarks):
        chunk = results[b_idx * per_bench:(b_idx + 1) * per_bench]
        result.rows[bench] = [
            (chunk[2 * p].ipc, chunk[2 * p + 1].ipc)
            for p in range(len(points))]
    return result


def sweep_fill_latency(service: ExecutionService, benchmarks: list,
                       points=(1, 2, 5, 10, 20)) -> SweepResult:
    """Figure 8's knob, on a wider range."""
    return _run_sweep(
        service, "fill-unit pipeline latency", "cycles", list(points),
        lambda latency, opts: SimConfig.paper(opts, latency),
        benchmarks)


def sweep_bypass_penalty(service: ExecutionService, benchmarks: list,
                         points=(0, 1, 2, 3)) -> SweepResult:
    """Cross-cluster forwarding cost: what placement monetizes."""
    return _run_sweep(
        service, "cross-cluster bypass penalty", "cycles", list(points),
        lambda penalty, opts: replace(SimConfig.paper(opts),
                                      cross_cluster_penalty=penalty),
        benchmarks)


def sweep_window(service: ExecutionService, benchmarks: list,
                 points=(64, 128, 256, 512)) -> SweepResult:
    """In-flight window: chain-height savings matter more when the
    window cannot hide latency with parallelism."""
    return _run_sweep(
        service, "instruction window size", "entries", list(points),
        lambda window, opts: replace(SimConfig.paper(opts),
                                     window_size=window),
        benchmarks)


def sweep_trace_cache_size(service: ExecutionService, benchmarks: list,
                           points=(64, 128, 512)) -> SweepResult:
    """Trace cache sets (capacity): optimization coverage follows the
    fraction of the stream the TC supplies."""
    def make(num_sets, opts):
        return replace(SimConfig.paper(opts),
                       trace_cache=TraceCacheConfig(num_sets=num_sets))
    return _run_sweep(service, "trace cache capacity", "sets",
                      list(points), make, benchmarks)


def sweep_checkpoints(service: ExecutionService, benchmarks: list,
                      points=(4, 8, 16, 32)) -> SweepResult:
    """Checkpoint-repair storage: speculation depth in branches."""
    return _run_sweep(
        service, "checkpoint storage", "checkpoints", list(points),
        lambda capacity, opts: replace(SimConfig.paper(opts),
                                       max_checkpoints=capacity),
        benchmarks)


__all__ = ["SweepResult", "sweep_fill_latency", "sweep_bypass_penalty",
           "sweep_window", "sweep_trace_cache_size", "sweep_checkpoints"]
