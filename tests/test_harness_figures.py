"""Structural tests for the remaining figure regenerators (4-6) and
the figure plumbing not covered by test_harness.py."""

import pytest

from repro.exec.service import ExecutionService
from repro.harness import figures

SUBSET = ["m88ksim", "go", "tex"]


@pytest.fixture(scope="module")
def service():
    return ExecutionService(scale=0.12)


def test_figure4_m88ksim_dominates(service):
    fig = figures.figure4(service, SUBSET)
    assert fig.rows["m88ksim"] == max(fig.rows.values())
    assert "reassociation" in fig.title


def test_figure5_index_codes_lead(service):
    fig = figures.figure5(service, SUBSET)
    assert max(fig.rows["go"], fig.rows["tex"]) >= fig.rows["m88ksim"]


def test_figure6_positive_mean(service):
    fig = figures.figure6(service, SUBSET)
    assert fig.mean > -1.0
    assert set(fig.rows) == set(SUBSET)


def test_all_figures_returns_six(service):
    results = figures.all_figures(service, SUBSET)
    assert [f.figure for f in results] == [
        f"Figure {n}" for n in range(3, 9)]


def test_single_opt_figures_share_baseline_cache():
    fresh = ExecutionService(scale=0.05)
    figures.figure3(fresh, ["m88ksim"])
    cached = fresh.stats["simulated"]
    figures.figure5(fresh, ["m88ksim"])
    # baseline results reused: only the scaled-add run was added
    assert fresh.stats["simulated"] == cached + 1
    figures.figure5(fresh, ["m88ksim"])
    assert fresh.stats["simulated"] == cached + 1  # cached now


def test_figure_render_smoke(service):
    for fig in (figures.figure4(service, SUBSET),
                figures.figure6(service, SUBSET)):
        text = fig.render()
        assert fig.figure in text
        assert "m88ksim" in text


def test_figure8_default_latencies(service):
    fig = figures.figure8(service, SUBSET)
    assert fig.extra["latencies"] == (1, 5, 10)
    assert len(next(iter(fig.rows.values()))) == 3
    # the headline column is the 5-cycle one
    assert fig.extra["columns"][1] == "5-cycle"
