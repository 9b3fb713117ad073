"""Grid expansion helpers (the one config-variant expander)."""

from __future__ import annotations

from repro.exec.grid import expand, opt_variant, paper_grid, variant_label
from repro.fillunit.opts.base import OptimizationConfig


def test_variant_label():
    assert variant_label(OptimizationConfig.none()) == "baseline"
    assert variant_label(OptimizationConfig.only("moves")) == "moves"
    assert (variant_label(OptimizationConfig.all())
            == "moves+reassoc+scaled_adds+placement")


def test_opt_variant_builds_paper_machine():
    label, config = opt_variant(OptimizationConfig.only("reassoc"),
                                fill_latency=7)
    assert label == "reassoc"
    assert config.fill_latency == 7
    assert config.optimizations.reassoc
    assert not config.optimizations.moves


def test_expand_is_benchmark_major():
    variants = [opt_variant(OptimizationConfig.none()),
                opt_variant(OptimizationConfig.all())]
    jobs = expand(["a", "b"], variants)
    assert [(j.benchmark, j.label) for j in jobs] == [
        ("a", "baseline"), ("a", "moves+reassoc+scaled_adds+placement"),
        ("b", "baseline"), ("b", "moves+reassoc+scaled_adds+placement")]


def test_paper_grid_covers_figures_and_table2():
    jobs = paper_grid(["compress"], latencies=(1, 5, 10))
    labels = {j.label for j in jobs}
    # figures 3-6: each single optimization at the default latency
    assert {"moves", "reassoc", "scaled_adds", "placement"} <= labels
    # figure 8 + table 2: baseline and combined at each latency
    assert {"baseline@1", "baseline", "baseline@10"} <= labels
    combined = variant_label(OptimizationConfig.all())
    assert {f"{combined}@1", combined, f"{combined}@10"} <= labels
    assert len(jobs) == 10

