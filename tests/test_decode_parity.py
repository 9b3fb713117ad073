"""Decode-once parity, and the per-instruction path under observers.

The timing engine, the fill collector and the functional executor read
each instruction's facts from a :class:`~repro.isa.decoded.Decoded`
record, built once per static instruction. A segment entry shares its
program instruction's record until a pass rewrites it; the fill unit
re-decodes exactly the rewritten (and freshly created) entries when it
seals the segment. The :class:`Instruction` query methods stay the
reference definitions: these tests pin every record field to them over
the fifteen workloads' program images, over every segment the fill
unit builds under each pass alone, the extended set and an evicting
machine, and over generated programs. They pin the sharing itself and
that the program image is never rewritten. They also pin that an
appended observer stage joins the per-instruction chain with
unchanged results (``tests/test_hostprof.py`` pins the same for
host-profiler proxies).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st
import pytest

from repro import workloads
from repro.branch.bias import BiasTable
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.stages import PipelineStage
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig
from repro.fillunit.unit import FillUnit, FillUnitConfig
from repro.isa.decoded import Decoded
from repro.isa.opcodes import OpClass
from repro.isa.semantics import semantics_for
from repro.machine import run_program
from repro.telemetry import Telemetry
from repro.tracecache.cache import TraceCache, TraceCacheConfig
from repro.workloads import synth
from repro.workloads.builder import AsmBuilder, lcg_values


def reference(instr) -> dict:
    """Every :class:`Decoded` field, derived from the query methods the
    way the per-instruction readers derived them before decoding."""
    sources = instr.sources()
    if instr.is_mem():
        addr_regs, value_reg = instr.mem_split()
        roles = [(reg, False) for reg in addr_regs]
        if value_reg is not None:
            roles.append((value_reg, True))
    else:
        roles = [(reg, False) for reg in sources]
    optimized = (instr.move_flag or instr.reassociated
                 or instr.scale is not None)
    return {
        "op": instr.op,
        "latency": instr.info.latency,
        "dest": instr.dest(),
        "sources": tuple(reg for reg in sources if reg != 0),
        "operands": tuple(role for role in roles if role[0] != 0),
        "move": instr.move_flag,
        "move_src": (sources[0] if instr.move_flag and sources
                     and sources[0] != 0 else None),
        "reassociated": instr.reassociated,
        "scaled": instr.scale is not None,
        "optimized": optimized,
        "is_nop": instr.opclass is OpClass.NOP,
        "is_load": instr.is_load(),
        "is_store": instr.is_store(),
        "is_cond_branch": instr.is_cond_branch(),
        "is_ctrl": instr.is_ctrl(),
        "is_call": instr.is_call(),
        "is_return": instr.is_return(),
        "is_indirect": instr.is_indirect(),
        "is_serializing": instr.is_serializing(),
        "terminates_segment": instr.terminates_segment(),
        "guarded": instr.guard is not None,
        "semantics": semantics_for(instr.op),
    }


def assert_parity(instr) -> None:
    expected = reference(instr)
    assert set(expected) == set(Decoded.__slots__)
    decoded = instr.decoded
    got = {name: getattr(decoded, name) for name in expected}
    assert got == expected, f"decoded record of {instr} is stale"


def assert_sealed(segment) -> None:
    for instr in segment.instrs:
        assert_parity(instr)
    assert segment.branch_at == {b.index: b for b in segment.branches}
    assert segment.predicated == any(instr.guard is not None
                                     for instr in segment.instrs)


@pytest.mark.parametrize("bench", workloads.names())
def test_program_image_records_match_methods(bench):
    program = workloads.build(bench, scale=0.05)
    for instr in program.instructions:
        assert_parity(instr)


def _engine_capturing_segments(config: SimConfig):
    """An engine whose fill unit keeps every segment it builds."""
    engine = Engine(config)
    built = []
    build = engine.fill_unit.build_segment

    def capture(candidate, cycle=0):
        segment = build(candidate, cycle)
        built.append(segment)
        return segment

    engine.fill_unit.build_segment = capture
    return engine, built


def _evicting(config: SimConfig) -> SimConfig:
    """*config* on the evicting ``tiny-evict`` geometry: a 16-set
    trace cache and 1 KiB L1I/L1D, so lines are evicted and rebuilt."""
    return dataclasses.replace(
        config,
        trace_cache=dataclasses.replace(config.trace_cache, num_sets=16),
        hierarchy=dataclasses.replace(config.hierarchy, l1i_size=1024,
                                      l1d_size=1024))


PASS_NAMES = ("predication", "cse", "dead_code", "moves", "reassoc",
              "scaled_adds", "placement")


@pytest.mark.parametrize("opts,evicting", [
    *[pytest.param(lambda name=name: OptimizationConfig.only(name), False,
                   id=name) for name in PASS_NAMES],
    pytest.param(OptimizationConfig.extended, False, id="extended"),
    pytest.param(OptimizationConfig.extended, True,
                 id="extended-evicting"),
])
def test_segment_records_match_methods(opts, evicting):
    """Every segment built on compress and li, checked after the runs:
    a pass that rewrites an entry without marking it, or a rewrite
    landing after the seal, leaves a stale record behind and is named
    by the parameter. The evicting machine also checks the rebuilds
    after eviction and after promotion changes."""
    instrs = []
    rebuilt = evictions = 0
    for bench in ("compress", "li"):
        trace = run_program(workloads.build(bench, scale=0.2))
        config = SimConfig.tiny(opts())
        engine, built = _engine_capturing_segments(
            _evicting(config) if evicting else config)
        engine.run(trace, benchmark=bench)
        assert built
        for segment in built:
            assert_sealed(segment)
            instrs += segment.instrs
        paths = [(s.start_pc, s.path_key) for s in built]
        rebuilt += len(paths) - len(set(paths))
        evictions += engine.trace_cache.stats.evictions
    if evicting:
        assert evictions and rebuilt
    enabled = opts()
    if enabled.predication:
        assert any(instr.guard is not None for instr in instrs)
    if enabled.moves:
        assert any(instr.move_flag for instr in instrs)
    if enabled.reassoc:
        assert any(instr.reassociated for instr in instrs)
    if enabled.scaled_adds:
        assert any(instr.scale is not None for instr in instrs)


#: the fields a segment copy sets for itself; every other field equals
#: the program instruction's until a pass rewrites the entry
_REGION_FIELDS = ("block_id", "flow_id", "orig_index")


def _image_fields(instr) -> dict:
    return {f.name: getattr(instr, f.name)
            for f in dataclasses.fields(instr)
            if f.name not in _REGION_FIELDS}


def _record_fields(decoded) -> dict:
    return {name: getattr(decoded, name) for name in Decoded.__slots__}


@pytest.mark.parametrize("bench", ["compress", "li"])
def test_segments_share_records_and_leave_the_image_alone(bench):
    """An extended run rewrites segment copies, never the program
    image. An entry no pass rewrote shares its program instruction's
    record; a rewritten entry holds its own, equal to a fresh decode."""
    program = workloads.build(bench, scale=0.2)
    trace = run_program(program)
    image = [_image_fields(instr) for instr in program.instructions]
    engine, built = _engine_capturing_segments(
        SimConfig.tiny(OptimizationConfig.extended()))
    engine.run(trace, benchmark=bench)
    assert [_image_fields(instr)
            for instr in program.instructions] == image
    shared = rewritten = 0
    for segment in built:
        for entry in segment.instrs:
            original = program.instr_at(entry.pc)
            if _image_fields(entry) == _image_fields(original):
                assert entry.decoded is original.decoded
                shared += 1
            else:
                assert entry.decoded is not original.decoded
                assert (_record_fields(entry.decoded)
                        == _record_fields(Decoded(entry)))
                rewritten += 1
    assert shared and rewritten


FRAGMENTS = {
    "bitmix": lambda b, name: synth.emit_bitmix(b, name),
    "array": lambda b, name: synth.emit_array_sum_scaled(b, name, "arr",
                                                         16),
    "multichain": lambda b, name: synth.emit_multichain_sum(b, name,
                                                            "arr"),
    "hash": lambda b, name: synth.emit_hash_loop(b, name, "tab", 0x1F,
                                                 feedback=True),
    "poly": lambda b, name: synth.emit_poly_eval(b, name, "arr", 4),
    "copy": lambda b, name: synth.emit_copy_loop(b, name, "arr", "dst"),
}


@st.composite
def synth_programs(draw):
    """A small program composed from the workload fragment palette."""
    kinds = draw(st.lists(st.sampled_from(sorted(FRAGMENTS)),
                          min_size=1, max_size=4, unique=True))
    b = AsmBuilder("synth")
    b.data_words("arr", lcg_values(draw(st.integers(1, 999)), 32))
    b.data_space("dst", 32 * 4)
    b.data_space("tab", 32 * 4)
    phases = []
    for kind in kinds:
        FRAGMENTS[kind](b, kind)
        count = draw(st.integers(1, 4)) * 4
        phases.append((kind, [f"    li   $a0, {count}",
                              "    move $a1, $s2"],
                       ["    add  $s2, $s2, $v0"]))
    synth.emit_main_driver(b, phases, outer_iters=draw(st.integers(1, 3)))
    return b.build()


@given(synth_programs())
@settings(max_examples=25, deadline=None)
def test_generated_program_records_match_methods(program):
    for instr in program.instructions:
        assert_parity(instr)
    unit = FillUnit(
        FillUnitConfig(latency=1,
                       optimizations=OptimizationConfig.extended()),
        TraceCache(TraceCacheConfig(num_sets=16, assoc=2)),
        BiasTable(64, threshold=2))
    collector = FillCollector(unit.bias)
    for record in run_program(program).records:
        if record.instr.is_cond_branch():
            unit.bias.record(record.pc, record.taken)
        for candidate in collector.add(record):
            assert_sealed(unit.build_segment(candidate))
    for candidate in collector.flush():
        assert_sealed(unit.build_segment(candidate))


class PcLogStage(PipelineStage):
    """Observer stage recording the PC of every committed slot it sees
    (phantoms are counted, not logged: they carry no record)."""

    name = "pc-log"

    def __init__(self) -> None:
        self.pcs = []
        self.phantoms = 0

    def process(self, state, slot) -> None:
        entry = slot.entry
        if entry.phantom:
            self.phantoms += 1
        else:
            self.pcs.append(entry.record.pc)


@pytest.mark.parametrize("observed,opts", [
    pytest.param(True, OptimizationConfig.all, id="True"),
    pytest.param(False, OptimizationConfig.all, id="False"),
    pytest.param(True, OptimizationConfig.extended, id="extended-True"),
    pytest.param(False, OptimizationConfig.extended, id="extended-False"),
])
def test_observer_stage_sees_every_instruction(observed, opts):
    """An appended observer stage joins the per-instruction chain, with
    or without a telemetry session: the cycles stay put and it sees
    every committed instruction exactly once, in order — predicated
    phantoms (the extended set) included in the chain but not in the
    committed stream."""
    trace = run_program(workloads.build("compress", scale=0.2))
    config = SimConfig.tiny(opts())

    def session():
        return Telemetry(spans=True) if observed else None

    plain = Engine(config, telemetry=session()).run(trace,
                                                    benchmark="compress")
    engine = Engine(config, telemetry=session())
    stage = PcLogStage()
    engine.stages.append(stage)
    watched = engine.run(trace, benchmark="compress")
    assert watched.cycles == plain.cycles
    assert stage.pcs == [r.pc for r in trace.records]
    if opts is OptimizationConfig.extended:
        assert stage.phantoms > 0
