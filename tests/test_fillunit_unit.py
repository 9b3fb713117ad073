"""Fill unit orchestration tests."""

from repro import workloads
from repro.branch.bias import BiasTable
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig
from repro.fillunit.unit import FillUnit, FillUnitConfig
from repro.machine.executor import Executor
from repro.tracecache.cache import TraceCache, TraceCacheConfig
from tests.helpers import run_asm

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
    tc = TraceCache(TraceCacheConfig(num_sets=32, assoc=4))
    unit = FillUnit(FillUnitConfig(
        latency=latency,
        optimizations=opts or OptimizationConfig.none()),
        tc, BiasTable(64, threshold=8))
    return unit, tc


def feed(unit, trace):
    for cycle, record in enumerate(trace):
        if record.instr.is_cond_branch():
            unit.bias.record(record.pc, record.taken)
        unit.retire(record, cycle)


def test_segments_installed_with_latency():
    unit, tc = make_unit(latency=7)
    _, trace = run_asm(LOOP)
    feed(unit, trace)
    assert unit.stats.segments_built > 0
    assert tc.stats.fills == unit.stats.segments_built
    seg = tc.probe(trace[0].pc)
    assert seg is not None
    # fill_cycle = retirement cycle of the finalizing instr + latency


def test_identical_segments_deduped():
    """A hot loop rebuilds the same segment over and over; the fill
    unit recognizes it and refreshes the line instead of re-optimizing."""
    unit, tc = make_unit()
    _, trace = run_asm(LOOP)
    feed(unit, trace)
    assert unit.stats.segments_deduped > 0
    assert tc.stats.refreshes == unit.stats.segments_deduped


def test_pass_totals_accumulate():
    unit, _ = make_unit(OptimizationConfig.all())
    _, trace = run_asm("""
    main:
        addi $t1, $t0, 0
        sll  $t2, $t0, 2
        add  $t3, $t2, $t0
        halt
    """)
    feed(unit, trace)
    totals = unit.pass_totals
    assert totals["moves_marked"] >= 1
    assert totals["scaled_adds"] >= 1
    assert "placed_instructions" in totals


def test_built_segments_are_valid():
    unit, tc = make_unit(OptimizationConfig.all())
    _, trace = run_asm(LOOP)
    feed(unit, trace)
    for entries in tc._sets:
        for seg in entries.values():
            seg.validate()
            assert seg.deps is not None


def test_assembled_segments_carry_region_ids():
    """assemble_segment counts block and flow ids while it copies the
    entries: they equal the candidate's region_ids, and block_count is
    one past the last block id."""
    unit, _ = make_unit()
    collector = FillCollector(unit.bias)
    checked = 0
    for record in Executor(workloads.build("compress", scale=0.05)).run():
        if record.instr.is_cond_branch():
            unit.bias.record(record.pc, record.taken)
        for candidate in collector.add(record):
            segment = unit.assemble_segment(candidate)
            block_ids, flow_ids = candidate.region_ids()
            assert [i.block_id for i in segment.instrs] == block_ids
            assert [i.flow_id for i in segment.instrs] == flow_ids
            assert [i.orig_index for i in segment.instrs] == list(
                range(len(candidate)))
            assert segment.block_count == block_ids[-1] + 1
            checked += 1
    assert checked > 100


def test_instructions_collected_counter():
    unit, _ = make_unit()
    _, trace = run_asm(LOOP)
    feed(unit, trace)
    assert unit.collector.collected == len(trace)


def test_note_fetch_miss_propagates_to_collector():
    unit, _ = make_unit()
    unit.note_fetch_miss(0x1234)
    assert 0x1234 in unit.collector._miss_points


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
    for entries in tc._sets:
        for seg in entries.values():
            assert not any(i.move_flag or i.scale or i.reassociated
                           for i in seg.instrs)
            assert seg.slots == list(range(len(seg)))
