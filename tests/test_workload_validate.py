"""Workload fingerprints against the paper's Table 2, on the grid path:
the coverage Table 2 reports and the combined gain Figure 8 reports."""

import pytest

from repro.errors import UnknownBenchmarkError
from repro.exec.grid import opt_job
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig
from repro.harness import figures, tables
from repro.workloads.registry import PAPER_TABLE2, Table2Row


@pytest.fixture(scope="module")
def service():
    return ExecutionService(scale=0.15)


def m88ksim_coverage(service):
    result = service.run(opt_job("m88ksim", OptimizationConfig.all()))
    return result.coverage.as_percentages(result.instructions)


def test_coverage_vs_target(service):
    coverage = m88ksim_coverage(service)
    assert 0.3 < coverage["any_opt"] / PAPER_TABLE2["m88ksim"].total < 3.0
    # m88ksim's scaled-add target (1.2%) is noise-level for our kernel;
    # the real categories (moves, reassoc, total) must sit in the band.
    assert tables.within_band(coverage, PAPER_TABLE2["m88ksim"],
                              factor=3.0, floor_pct=1.5)


def test_improvement_positive(service):
    assert figures.improvement(service, "m88ksim",
                               OptimizationConfig.all()) > 5.0


def test_render(service):
    """Table 2's note quotes the paper average of its own average row,
    and its last line is the band verdict, naming each benchmark
    outside it."""
    coverage = m88ksim_coverage(service)
    outside = not tables.within_band(coverage, PAPER_TABLE2["m88ksim"])
    lines = tables.table2(service, ["m88ksim"]).render().splitlines()
    average = next(line for line in lines if line.startswith("average"))
    paper_total = average.split()[-1]
    assert paper_total == f"{PAPER_TABLE2['m88ksim'].total:.1f}"
    assert lines[-2].startswith(f"paper average is {paper_total}%; ")
    band = lines[-1]
    assert band.startswith("outside the 3x band of the paper ")
    assert band.endswith(" 1 of 1 (m88ksim)" if outside else " 0 of 1")


def test_within_factor_logic():
    coverage = {"moves": 6.0, "reassoc": 0.0, "scaled": 4.0,
                "any_opt": 10.0}
    target = Table2Row(moves=6.0, reassoc=0.5, scaled=4.0, total=10.0)
    # reassoc target is under the noise floor: exempt despite 0 measured
    assert tables.within_band(coverage, target, factor=2.0, floor_pct=1.0)
    coverage["moves"] = 0.5     # 12x off a real target
    assert not tables.within_band(coverage, target, factor=2.0,
                                  floor_pct=1.0)


def test_zero_target_ratio_is_none():
    """A category the paper puts at 0% has no ratio to score: it is
    exempt whatever is measured."""
    coverage = {"moves": 1.0, "reassoc": 1.0, "scaled": 1.0,
                "any_opt": 1.0}
    target = Table2Row(moves=0.0, reassoc=1.0, scaled=1.0, total=1.0)
    assert tables.within_band(coverage, target)
    assert not tables.within_band(coverage, target, floor_pct=0.0)


def test_unknown_benchmark_raises(service):
    with pytest.raises(UnknownBenchmarkError, match="quake"):
        figures.improvement(service, "quake", OptimizationConfig.all())
