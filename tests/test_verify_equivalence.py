"""Translation validation over real pass output: every optimization
configuration must verify clean on segments the fill unit actually
builds from the seed workloads."""

from dataclasses import replace

import pytest

from repro import workloads
from repro.branch.bias import BiasTable
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.tracecache.cache import TraceCacheConfig
from repro.verify import check_equivalence
from tests.helpers import build_segments, make_fill_unit, run_asm

#: the asm kernel exercising every rewrite at once: move chains,
#: cross-block ADDI chains, shift+add address math, stores, branches.
KERNEL = """
main:
    addi $t0, $zero, 5
    addi $t1, $t0, 0
    addi $t2, $t1, 4
    beq  $zero, $zero, next
next:
    addi $t3, $t2, 4
    sll  $t4, $t3, 2
    add  $t5, $t4, $sp
    sw   $t3, 0($t5)
    halt
"""

ALL_CONFIGS = ["moves", "reassoc", "scaled_adds", "placement", "all",
               "extended"]


def verify_built_segments(source, opts):
    _, trace = run_asm(source)
    bias = BiasTable(64, threshold=4)
    unit = make_fill_unit(bias, opts,
                          TraceCacheConfig(num_sets=64, assoc=4),
                          verify_fill=True)
    collector = FillCollector(bias, 16, 3)
    for record in trace:
        if record.instr.is_cond_branch():
            bias.record(record.pc, record.taken)
        for candidate in collector.add(record):
            unit.build_segment(candidate)
    return unit.verifier.report


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_each_config_clean_on_kernel(name):
    opts = (OptimizationConfig.all() if name == "all"
            else OptimizationConfig.extended() if name == "extended"
            else OptimizationConfig.only(name))
    report = verify_built_segments(KERNEL, opts)
    assert report.segments_checked > 0
    assert report.violations == 0, report.render()


@pytest.mark.parametrize("bench", workloads.names())
def test_seed_workloads_verify_clean(bench):
    """The acceptance bar: every stand-in on the paper machine, under
    the paper's combined set and under the extended one, builds
    segments whose every pass verifies with no error and no
    warning."""
    trace = Executor(workloads.build(bench, 0.2)).run()
    for opts in (OptimizationConfig.all(), OptimizationConfig.extended()):
        engine = Engine(replace(SimConfig.paper(opts), verify_fill=True))
        engine.run(trace, bench)
        report = engine.fill_unit.verifier.report
        assert report.segments_checked > 0
        assert report.violations == report.warnings == 0, \
            report.render()


def test_identical_segments_are_equivalent():
    _, _, segments = build_segments(KERNEL, OptimizationConfig.none())
    for segment in segments:
        assert check_equivalence(segment, segment.clone(), "none") == []


def test_report_render_mentions_counts():
    opts = OptimizationConfig.all()
    report = verify_built_segments(KERNEL, opts)
    text = report.render()
    assert "segments checked" in text
    assert "violations: 0" in text

