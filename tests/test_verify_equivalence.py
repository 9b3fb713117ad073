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
from repro.verify import SegmentVerifier, check_equivalence
from tests.helpers import build_segments, make_fill_unit

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


def verify_built_segments(source, opts, **kw):
    verifier = SegmentVerifier(opts)
    program, trace, _ = build_segments(source, opts, **kw)
    bias = BiasTable(64, threshold=4)
    unit = make_fill_unit(bias, opts,
                          TraceCacheConfig(num_sets=64, assoc=4))
    collector = FillCollector(bias, 16, 3)
    for record in trace:
        if record.instr.is_cond_branch():
            bias.record(record.pc, record.taken)
        for candidate in collector.add(record):
            original = unit.assemble_segment(candidate)
            optimized = unit.build_segment(candidate)
            verifier.check(original, optimized)
    return verifier.report


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
    """The acceptance bar: every stand-in on the paper machine under
    the paper's combined configuration builds segments that verify
    with zero violations."""
    config = replace(SimConfig.paper(OptimizationConfig.all()),
                     verify_fill=True)
    engine = Engine(config)
    engine.run(Executor(workloads.build(bench, 0.2)).run(), bench)
    report = engine.fill_unit.verifier.report
    assert report.segments_checked > 0
    assert report.violations == 0, report.render()


def test_identical_segments_are_equivalent():
    _, _, segments = build_segments(KERNEL, OptimizationConfig.none())
    for segment in segments:
        violations, _, _ = check_equivalence(segment, segment.clone())
        assert violations == []


def test_report_render_mentions_counts():
    opts = OptimizationConfig.all()
    report = verify_built_segments(KERNEL, opts)
    text = report.render()
    assert "segments checked" in text
    assert "violations: 0" in text

