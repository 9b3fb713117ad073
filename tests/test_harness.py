"""Harness tests on a reduced benchmark subset (kept fast)."""

import pytest

from repro.exec.grid import opt_job
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig
from repro.harness import figures, tables
from repro.harness.figures import improvement
from repro.harness.report import render_bar_chart, render_table

SUBSET = ["compress", "m88ksim"]


@pytest.fixture(scope="module")
def service():
    return ExecutionService(scale=0.15)


def test_trace_cached(service):
    first = service.trace("compress")
    second = service.trace("compress")
    assert first is second


def test_results_cached(service):
    a = service.run(opt_job("compress", OptimizationConfig.none()))
    b = service.run(opt_job("compress", OptimizationConfig.none()))
    assert a is b


def test_improvement_positive_for_combined(service):
    imp = improvement(service, "m88ksim", OptimizationConfig.all())
    assert imp > 0


def test_figure3_structure(service):
    fig = figures.figure3(service, SUBSET)
    assert set(fig.rows) == set(SUBSET)
    assert fig.figure == "Figure 3"
    text = fig.render()
    assert "register move" in text and "paper claim" in text


def test_figure7_reports_pairs(service):
    fig = figures.figure7(service, SUBSET)
    for base_pct, placed_pct in fig.rows.values():
        assert 0 <= placed_pct <= 100 and 0 <= base_pct <= 100
    assert "mean_baseline" in fig.extra


def test_figure8_latency_columns(service):
    fig = figures.figure8(service, SUBSET, latencies=(1, 5))
    for values in fig.rows.values():
        assert len(values) == 2
    assert "specint_mean" in fig.extra
    assert "1-cycle" in fig.extra["columns"]


def test_table1_lists_subset(service):
    table = tables.table1(service, SUBSET)
    names = [row[0] for row in table.rows]
    assert names == SUBSET
    assert "95M" in table.render()


def test_table2_has_average_row(service):
    table = tables.table2(service, SUBSET)
    assert table.rows[-1][0] == "average"
    assert len(table.rows) == len(SUBSET) + 1


# --- report rendering -------------------------------------------------------

def test_render_table_alignment():
    text = render_table(["name", "value"], [["a", 1.25], ["bb", 10.0]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert "1.2" in text and "10.0" in text


def test_render_bar_chart():
    text = render_bar_chart({"aa": 10.0, "b": -5.0}, title="T")
    assert text.startswith("T")
    assert "#" in text
    assert "-" in text.splitlines()[2]   # negative bar marked


def test_render_bar_chart_empty():
    assert render_bar_chart({}, title="T") == "T"
