"""Regenerators for the paper's figures 3-8.

Each function runs the experiment its figure reports and returns a
:class:`FigureResult` whose ``rows`` mirror the figure's bars/series
and whose ``render()`` prints an ASCII equivalent. Absolute numbers are
not expected to match the paper (different workloads, see DESIGN.md §3)
— the *shape* claims each figure makes are recorded in ``claim`` and
checked by the benchmark suite.

Every generator takes the :class:`~repro.exec.service.ExecutionService`
that resolves its jobs and the benchmarks to report, in row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.stats import arithmetic_mean
from repro.exec.grid import opt_job
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig
from repro.harness.report import render_bar_chart, render_table
from repro.workloads.registry import specint_names


@dataclass
class FigureResult:
    """One regenerated figure."""

    figure: str
    title: str
    rows: dict                      # benchmark -> value (or tuple)
    mean: float
    claim: str
    extra: dict = field(default_factory=dict)
    note: str = ""                  # a summary line below the claim

    def render(self) -> str:
        if isinstance(next(iter(self.rows.values())), tuple):
            headers = ["benchmark"] + list(self.extra.get(
                "columns", ("baseline", "optimized")))
            rows = [[name, *values] for name, values in self.rows.items()]
            body = render_table(headers, rows)
        else:
            body = render_bar_chart(self.rows)
        out = (f"{self.figure}: {self.title}\n{body}\n"
               f"mean: {self.mean:.1f}\npaper claim: {self.claim}")
        if self.note:
            out += f"\n\n{self.note}"
        return out


def improvement(service: ExecutionService, bench: str,
                opts: OptimizationConfig, fill_latency: int = 5) -> float:
    """Percent IPC improvement of *opts* over the measured baseline."""
    optimized = service.run(opt_job(bench, opts, fill_latency))
    return optimized.improvement_over(service.run(
        opt_job(bench, OptimizationConfig.none(), fill_latency)))


def _single_opt_figure(service: ExecutionService, benchmarks: Sequence[str],
                       figure: str, title: str, opt_name: str,
                       claim: str) -> FigureResult:
    opts = OptimizationConfig.only(opt_name)
    rows = {bench: improvement(service, bench, opts)
            for bench in benchmarks}
    return FigureResult(figure, title, rows,
                        arithmetic_mean(rows.values()), claim)


def figure3(service: ExecutionService,
            benchmarks: Sequence[str]) -> FigureResult:
    """IPC improvement of register-move marking (paper: avg ~5%; moves
    are ~6% of the dynamic stream)."""
    return _single_opt_figure(
        service, benchmarks, "Figure 3",
        "IPC improvement of register move handling",
        "moves", "average improvement ~5% across all benchmarks")


def figure4(service: ExecutionService,
            benchmarks: Sequence[str]) -> FigureResult:
    """IPC improvement of fill-unit reassociation (paper: 1-2% for most,
    ~23% for m88ksim and gnuchess, 6-8% for ijpeg and ghostscript)."""
    return _single_opt_figure(
        service, benchmarks, "Figure 4",
        "IPC improvement of fill unit reassociation",
        "reassoc",
        "little for most (1-2%); m88ksim and gnuchess far ahead (~23%)")


def figure5(service: ExecutionService,
            benchmarks: Sequence[str]) -> FigureResult:
    """IPC improvement of scaled-add creation (paper: 1-8%, avg 3.7%,
    go and tex highest)."""
    return _single_opt_figure(
        service, benchmarks, "Figure 5",
        "IPC improvement of scaled add instructions",
        "scaled_adds", "1-8% range, average 3.7%; go and tex highest")


def figure6(service: ExecutionService,
            benchmarks: Sequence[str]) -> FigureResult:
    """IPC improvement of fill-unit instruction placement (paper: avg
    ~5%; ijpeg largest at ~11%, tex smallest at ~1%)."""
    return _single_opt_figure(
        service, benchmarks, "Figure 6",
        "IPC improvement of fill unit placement",
        "placement", "average ~5%; ijpeg largest (~11%), tex least (~1%)")


def figure7(service: ExecutionService,
            benchmarks: Sequence[str]) -> FigureResult:
    """Fraction of on-path instructions whose last-arriving source was
    delayed by the bypass network, baseline vs placement (paper: 35%
    -> 29% on average)."""
    rows = {}
    base_vals = []
    placed_vals = []
    for bench in benchmarks:
        base = service.run(opt_job(bench, OptimizationConfig.none()))
        placed = service.run(
            opt_job(bench, OptimizationConfig.only("placement")))
        rows[bench] = (100.0 * base.bypass_delayed_fraction,
                       100.0 * placed.bypass_delayed_fraction)
        base_vals.append(rows[bench][0])
        placed_vals.append(rows[bench][1])
    mean_base = arithmetic_mean(base_vals)
    mean_placed = arithmetic_mean(placed_vals)
    return FigureResult(
        "Figure 7",
        "Instructions whose last-arriving value was bypass-delayed",
        rows, mean_placed,
        "placement reduces the average from ~35% to ~29%",
        extra={"columns": ("baseline %", "placement %"),
               "mean_baseline": mean_base,
               "mean_placement": mean_placed},
        note=(f"(mean baseline {mean_base:.1f}% "
              f"-> placement {mean_placed:.1f}%)"))


def figure8(service: ExecutionService, benchmarks: Sequence[str],
            latencies: tuple = (1, 5, 10)) -> FigureResult:
    """Combined IPC improvement of all four optimizations at fill-unit
    latencies of 1, 5 and 10 cycles (paper: ~18% average for 5 cycles,
    >17% on SPECint95; m88ksim ~44%, gnuchess ~38%; latency has
    negligible impact)."""
    all_opts = OptimizationConfig.all()
    rows = {}
    for bench in benchmarks:
        rows[bench] = tuple(
            improvement(service, bench, all_opts, fill_latency=latency)
            for latency in latencies)
    headline_idx = latencies.index(5) if 5 in latencies else 0
    headline = {bench: values[headline_idx]
                for bench, values in rows.items()}
    specint = [headline[b] for b in specint_names()
               if b in headline]
    specint_mean = arithmetic_mean(specint) if specint else 0.0
    return FigureResult(
        "Figure 8", "Combined IPC improvement vs fill-unit latency",
        rows, arithmetic_mean(headline.values()),
        "avg ~18% (SPECint >17%); m88ksim/gnuchess top; "
        "fill latency 1/5/10 cycles nearly indistinguishable",
        extra={"columns": tuple(f"{lat}-cycle" for lat in latencies),
               "latencies": latencies,
               "specint_mean": specint_mean},
        note=f"(SPECint95 mean {specint_mean:.1f}%)")


def all_figures(service: ExecutionService,
                benchmarks: Sequence[str]) -> list:
    """Regenerate every figure (3-8), in order."""
    return [figure(service, benchmarks)
            for figure in (figure3, figure4, figure5, figure6, figure7,
                           figure8)]


__all__ = ["FigureResult", "improvement", "figure3",
           "figure4", "figure5", "figure6", "figure7", "figure8",
           "all_figures"]
