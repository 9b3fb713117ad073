"""Fill unit orchestration tests."""

import dataclasses

import pytest

from repro import workloads
from repro.branch.bias import BiasTable
from repro.core.config import SimConfig
from repro.errors import SegmentError
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig, OptimizationPass
from repro.fillunit.unit import FillUnit
from repro.machine.executor import Executor
from repro.tracecache.cache import TraceCacheConfig
from tests.helpers import make_fill_unit, run_asm, run_fresh

LOOP = """
main:
    li   $t9, 30
loop:
    sll  $t1, $t0, 2
    addi $t0, $t0, 1
    blt  $t0, $t9, loop
    halt
"""


def make_unit(opts=None, latency=5):
    unit = make_fill_unit(BiasTable(64, threshold=8), opts,
                          TraceCacheConfig(num_sets=32, assoc=4), latency)
    return unit, unit.trace_cache


def test_unit_is_configured_by_the_machine_config():
    """The fill unit builds its trace cache from the machine's own
    ``trace_cache`` config: its line limits and the cache's are one."""
    config = dataclasses.replace(
        SimConfig.paper(OptimizationConfig.all()), fill_latency=2,
        trace_cache=TraceCacheConfig(num_sets=8, assoc=2, max_instrs=8,
                                     max_cond_branches=2))
    unit = FillUnit(config, BiasTable(64))
    assert unit.config is config
    assert unit.trace_cache.config is config.trace_cache
    assert (unit.max_instrs, unit.max_cond_branches) == (8, 2)


def test_unit_builds_after_config_is_imported_first():
    """``repro.core.config`` imports the fill-unit package; importing it
    first and then building a unit from a ``SimConfig`` must not close
    an import cycle."""
    out = run_fresh(
        "import json\n"
        "import repro.core.config\n"
        "from repro.branch.bias import BiasTable\n"
        "from repro.core.config import SimConfig\n"
        "from repro.fillunit.unit import FillUnit\n"
        "unit = FillUnit(SimConfig.paper(), BiasTable(64))\n"
        "print(json.dumps({'lines': unit.trace_cache.config.num_lines}))\n")
    assert out == {"lines": SimConfig.paper().trace_cache.num_lines}


def feed(unit, trace, start=0):
    for cycle, record in enumerate(trace, start):
        if record.instr.is_cond_branch():
            unit.bias.record(record.pc, record.taken)
        unit.feed(record, cycle)


def collected(unit):
    """Record every candidate the unit finalizes, with whether the
    trace cache already held its line; returns the list."""
    seen = []
    unit.collect_hooks = (
        lambda candidate, cycle, deduped: seen.append((candidate,
                                                       deduped)),)
    return seen


def test_segments_installed_with_latency():
    """A built line is installed at once but becomes visible to
    lookups only at its finalizing instruction's retire cycle plus the
    fill latency."""
    unit, tc = make_unit(latency=7)
    built = []
    unit.build_hooks = (lambda segment, cycle: built.append(segment),)
    _, trace = run_asm(LOOP)
    for cycle, record in enumerate(trace):
        feed(unit, [record], cycle)
        if built:
            break
    segment, = built
    assert tc.stats.fills == 1
    assert tc.probe(segment.start_pc) is segment
    assert tc.lookup(segment.start_pc, cycle + 6) is None
    assert tc.lookup(segment.start_pc, cycle + 7) is segment


def test_identical_segments_deduped():
    """A hot loop rebuilds the same segment over and over; the fill
    unit recognizes it and refreshes the line instead of re-optimizing."""
    unit, tc = make_unit()
    candidates = collected(unit)
    _, trace = run_asm(LOOP)
    feed(unit, trace)
    deduped = sum(1 for _, hit in candidates if hit)
    assert deduped > 0
    assert tc.stats.refreshes == deduped
    assert tc.stats.fills == len(candidates) - deduped


def test_pass_counts_accumulate():
    unit, _ = make_unit(OptimizationConfig.all())
    _, trace = run_asm("""
    main:
        addi $t1, $t0, 0
        sll  $t2, $t0, 2
        add  $t3, $t2, $t0
        halt
    """)
    feed(unit, trace)
    counts = unit.counts
    assert counts.get("fillunit.opts.moves.moves_marked", 0) >= 1
    assert counts.get("fillunit.opts.scaled_adds.scaled_adds", 0) >= 1
    assert counts.get("fillunit.opts.placement.placed_instructions",
                      0) >= 1


def test_built_segments_are_valid():
    unit, tc = make_unit(OptimizationConfig.all())
    _, trace = run_asm(LOOP)
    feed(unit, trace)
    for entries in tc._sets.values():
        for seg in entries.values():
            seg.validate()


def test_build_validates_segment():
    """The fill unit validates each segment it builds, once, after
    sealing it: a pass that leaves a line the trace cache cannot hold
    fails the build, and the line is never installed."""

    class Unslotted(OptimizationPass):
        name = "unslotted"
        surface = frozenset({"slots"})

        def apply(self, segment, ctx):
            segment.slots = [0] * len(segment)
            return {}

    unit, tc = make_unit(OptimizationConfig.only("placement"))
    unit.passes.passes.append(Unslotted())
    _, trace = run_asm(LOOP)
    with pytest.raises(SegmentError, match="permutation"):
        feed(unit, trace)
    assert tc.stats.fills == 0


def test_assembled_segments_carry_region_ids():
    """An assembled segment holds the candidate's own instructions and
    branch records, and counts its block and flow ids: the block id
    advances after every conditional branch, the flow id after every
    transfer, and block_count is one past the last block id."""
    unit, _ = make_unit()
    collector = FillCollector(unit.bias)
    checked = 0
    for record in Executor(workloads.build("compress", scale=0.05)).run():
        if record.instr.is_cond_branch():
            unit.bias.record(record.pc, record.taken)
        for candidate in collector.add(record):
            segment = unit.assemble_segment(candidate)
            instrs = [r.instr for r in candidate.records]
            assert all(entry is instr for entry, instr
                       in zip(segment.instrs, instrs, strict=True))
            assert segment.branches == candidate.branches
            block_ids, flow_ids = [], []
            block = flow = 0
            for instr in instrs:
                block_ids.append(block)
                flow_ids.append(flow)
                if instr.is_ctrl():
                    flow += 1
                    block += instr.is_cond_branch()
            assert segment.block_ids == block_ids
            assert segment.flow_ids == flow_ids
            assert segment.block_count == block_ids[-1] + 1
            checked += 1
    assert checked > 100


def test_instructions_collected_counter():
    """Every fed record lands in one candidate: a finalized one or
    what is left pending at the end."""
    unit, _ = make_unit()
    candidates = collected(unit)
    _, trace = run_asm(LOOP)
    feed(unit, trace)
    records = [record for candidate, _ in candidates
               for record in candidate.records]
    records += [record for candidate in unit.flush()
                for record in candidate.records]
    assert records == list(trace)


def test_note_fetch_miss_propagates_to_collector():
    unit, _ = make_unit()
    unit.note_fetch_miss(0x1234)
    assert 0x1234 in unit._miss_points


def test_baseline_unit_keeps_annotations_clean():
    unit, tc = make_unit(OptimizationConfig.none())
    _, trace = run_asm("""
    main:
        addi $t1, $t0, 0
        sll  $t2, $t0, 2
        add  $t3, $t2, $t0
        halt
    """)
    feed(unit, trace)
    for entries in tc._sets.values():
        for seg in entries.values():
            assert not any(i.move_flag or i.scale or i.reassociated
                           for i in seg.instrs)
            assert seg.slots == list(range(len(seg)))
