"""Grid expansion: the one place experiment grids are spelled out.

Every grid flows through :class:`JobSpec` and the helpers here, so
the harness's tables and figures, ``repro figures`` (which runs
:func:`paper_grid` through the execution service before rendering)
and the benchmark suite all dispatch the same job shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.config import SimConfig
from repro.fillunit.opts.base import OptimizationConfig


@dataclass(frozen=True)
class JobSpec:
    """One simulation job: a benchmark under one machine config.

    The *label* is presentation only — it names the config in reports
    and :class:`~repro.core.results.SimResult.config_label` but does
    not participate in the job fingerprint, so relabelled duplicates
    of the same machine still share one cache entry.
    """

    benchmark: str
    config: SimConfig
    label: str


def variant_label(opts: OptimizationConfig) -> str:
    """The harness's conventional name for an optimization set."""
    names = opts.enabled_names()
    return "+".join(names) if names else "baseline"


def opt_variant(opts: OptimizationConfig,
                fill_latency: int = 5) -> Tuple[str, SimConfig]:
    """A ``(label, config)`` pair: the paper machine under *opts*."""
    return variant_label(opts), SimConfig.paper(opts, fill_latency)


def opt_job(benchmark: str, opts: OptimizationConfig,
            fill_latency: int = 5) -> JobSpec:
    """One figure-style job: *benchmark* on the paper machine under
    *opts* (``OptimizationConfig.none()`` is the measured baseline)."""
    label, config = opt_variant(opts, fill_latency)
    return JobSpec(benchmark, config, label)


def expand(benchmarks: Sequence[str],
           variants: Iterable[Tuple[str, SimConfig]]) -> List[JobSpec]:
    """The cross product, benchmark-major (matching the order the
    figures iterate, so warm traces are reused back-to-back)."""
    variant_list = list(variants)
    return [JobSpec(bench, config, label)
            for bench in benchmarks
            for label, config in variant_list]


def paper_grid(benchmarks: Sequence[str],
               latencies: Sequence[int] = (1, 5, 10)) -> List[JobSpec]:
    """Every job behind the paper's figures 3-8 and table 2: the four
    single-optimization machines at the default fill latency, plus
    baseline and all-optimizations at each *latencies* point."""
    variants: List[Tuple[str, SimConfig]] = []
    for latency in latencies:
        variants.append(
            ("baseline" if latency == 5 else f"baseline@{latency}",
             SimConfig.paper(OptimizationConfig.none(), latency)))
    for name in ("moves", "reassoc", "scaled_adds", "placement"):
        variants.append(opt_variant(OptimizationConfig.only(name)))
    for latency in latencies:
        label, config = opt_variant(OptimizationConfig.all(), latency)
        if latency != 5:
            label = f"{label}@{latency}"
        variants.append((label, config))
    return expand(benchmarks, variants)


__all__ = ["JobSpec", "variant_label", "opt_variant", "opt_job", "expand",
           "paper_grid"]
