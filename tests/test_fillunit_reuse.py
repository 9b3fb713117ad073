"""The fill unit's built-segment table: exact reuse, keyed by input.

A candidate whose build input (path, branch directions, collect-time
and live promotion) matches an earlier build reuses that sealed
segment and replays its accounting. These tests pin that a differing
input misses the table, that every reused segment equals a fresh
build of its candidate, and that the evicting runs' telemetry and
pass totals are the values recorded before the table existed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import workloads
from repro.branch.bias import BiasTable
from repro.core.engine import Engine
from repro.core.stages.base import PipelineStage
from repro.fillunit.collector import FillCollector, PendingSegment
from repro.fillunit.opts.base import OptimizationConfig
from repro.fillunit.unit import FillUnit
from repro.isa.decoded import Decoded
from repro.machine.executor import Executor
from repro.tracecache.cache import TraceCacheConfig
from repro.tracecache.segment import BranchInfo, TraceSegment
from tests.helpers import evicting_config, make_fill_unit, run_asm


def make_unit(opts: OptimizationConfig) -> FillUnit:
    return make_fill_unit(BiasTable(64, threshold=8), opts,
                          TraceCacheConfig(num_sets=16, assoc=2))


def content(segment) -> tuple:
    """Everything a fetch or a later observer can read of a segment."""
    instrs = [({f.name: getattr(instr, f.name)
                for f in dataclasses.fields(instr)},
               {name: getattr(instr.decoded, name)
                for name in Decoded.__slots__})
              for instr in segment.instrs]
    return (segment.start_pc, segment.block_ids, segment.flow_ids,
            instrs, segment.slots,
            segment.branches, segment.build_promo,
            segment.path_key, segment.controls, segment.coverage,
            segment.predicated)


# A fallthrough hammock: the branch is not taken, so the body is on
# the path and predication may guard it unless the branch is promoted.
HAMMOCK = """
main:
    andi $t5, $t0, 1
    bne  $t5, $zero, skip
    addi $t1, $t1, 17
skip:
    addi $t0, $t0, 1
    halt
"""

#: predication's count of the branches it folded into guards
PREDICATED = "fillunit.opts.predication.predicated_branches"


def test_live_promotion_flip_misses_the_table():
    unit = make_unit(OptimizationConfig.extended())
    _, trace = run_asm(HAMMOCK)
    collector = FillCollector(unit.bias)
    candidates = [c for record in trace for c in collector.add(record)]
    assert len(candidates) == 1
    candidate = candidates[0]
    (branch,) = candidate.branches
    assert not branch.promoted

    guarded = unit.build_segment(candidate)
    assert any(instr.guard is not None for instr in guarded.instrs)
    assert not guarded.branches

    # Retirement promotes the branch after the candidate was collected:
    # only the live bias table knows, and predication must follow it.
    for _ in range(unit.bias.threshold):
        unit.bias.record(branch.pc, False)
    assert unit.bias.is_promoted(branch.pc)
    plain = unit.build_segment(candidate)
    assert unit.stats.segments_reused == 0
    assert all(instr.guard is None for instr in plain.instrs)
    assert [b.pc for b in plain.branches] == [branch.pc]
    assert unit.counts.get(PREDICATED, 0) == 1

    again = unit.build_segment(candidate)
    assert unit.stats.segments_reused == 1
    assert again is plain
    assert unit.counts.get(PREDICATED, 0) == 1


# Sixteen instructions per iteration, ending on the loop branch: the
# first iteration's branch is taken, the second's falls through.
LOOP16 = "\n".join(
    ["main:", "    li   $t9, 2", "loop:"]
    + ["    addi $t1, $t1, 1"] * 14
    + ["    addi $t0, $t0, 1", "    bne  $t0, $t9, loop", "    halt"])


def loop16_candidate(first: int, promoted: bool = False):
    """The 16-instruction candidate starting at trace record *first*."""
    _, trace = run_asm(LOOP16)
    window = list(trace)[first:first + 16]
    last = window[-1]
    return PendingSegment(
        window, [BranchInfo(15, last.pc, last.taken, promoted)],
        0 if promoted else 1)


def test_final_branch_direction_is_part_of_the_key():
    unit = make_unit(OptimizationConfig.extended())
    taken, fallthrough = loop16_candidate(1), loop16_candidate(17)
    assert taken.path_key == fallthrough.path_key
    assert taken.branches[0].direction != fallthrough.branches[0].direction

    first = unit.build_segment(taken)
    second = unit.build_segment(fallthrough)
    assert unit.stats.segments_reused == 0
    assert first.branches[0].direction is True
    assert second.branches[0].direction is False
    assert unit.build_segment(taken).branches[0].direction is True
    assert unit.stats.segments_reused == 1


def test_collect_time_promotion_is_part_of_the_key():
    """Same path, directions and live bias state; only the promotion
    the collector saw differs, and with it the embedded prediction."""
    unit = make_unit(OptimizationConfig.extended())
    plain = unit.build_segment(loop16_candidate(1))
    promoted = unit.build_segment(loop16_candidate(1, promoted=True))
    assert unit.stats.segments_reused == 0
    assert (plain.build_promo, promoted.build_promo) == ((False,), (True,))
    assert promoted.branches[0].promoted


class ReuseCheck(PipelineStage):
    """Compares every reused segment with a fresh build of its
    candidate, made by a new fill unit sharing the live bias table."""

    name = "reuse-check"

    def __init__(self, unit: FillUnit) -> None:
        self.unit = unit
        self.candidate = None
        self.reused = 0
        self.checked = 0

    def segment_collected(self, candidate, cycle, deduped) -> None:
        self.candidate = candidate
        self.reused = self.unit.stats.segments_reused

    def segment_built(self, segment, cycle) -> None:
        if self.unit.stats.segments_reused == self.reused:
            return
        fresh = FillUnit(self.unit.config, self.unit.bias)
        assert content(segment) == content(
            fresh.build_segment(self.candidate, cycle))
        self.checked += 1


#: cycles and sha256 of ``{"telemetry": ...}`` (sorted-key JSON) at
#: scale 0.15 on the evicting machine under ``extended()``; the counts
#: were first pinned before the fill unit reused segments
EVICTING_EXTENDED = {
    ("compress", "lru"): (5328, "33a175c9f8c07767150c9686cce81ff2"
                                "0efeb90cbc07a9c05c7343f79662a8c6"),
    ("compress", "srrip"): (5308, "5aad303f2e7bfee84acdd6974ef8a590"
                                  "d76333a9d4e65178b2946377f27ddd88"),
    ("compress", "trrip"): (5305, "864f83eeef5b232d033554803402d7c2"
                                  "ac3a844c1206ac6ffba89c5230652d22"),
    ("li", "lru"): (4280, "2a52458389bb9c296573cf82d04e7aef"
                          "d3f7cf21fffbdab03aee99e98eba07b3"),
    ("li", "srrip"): (4302, "5ec93c2779ad4f43992a1d4eb453d6bc"
                            "2c9f45ddf4e65fc168f3b651ea616e4c"),
    ("li", "trrip"): (4265, "d4ed3a56f619c47f67d23c089487a072"
                            "19e9dabf7b11b07b9f33e0f935a4ea50"),
    ("gcc", "lru"): (3483, "aaba6227e53470f49cc65a93225d0026"
                           "3c856a733f05cd6355e50dd69fadba65"),
    ("gcc", "srrip"): (3378, "ca188570078497ff0b6db582b8a4003b"
                             "aaebe5cac7b1fe7fea0be34d766ac0d7"),
    ("gcc", "trrip"): (3345, "556f6e1a8d4a66c01c0384a981fa439b"
                             "d227102b043e5a27d4842f43e1bf5092"),
}

_RUNS: dict = {}


def _trace(bench: str):
    if bench not in _RUNS:
        _RUNS[bench] = Executor(workloads.build(bench, scale=0.15)).run()
    return _RUNS[bench]


@pytest.mark.parametrize("bench,policy", sorted(EVICTING_EXTENDED))
def test_reused_segments_equal_fresh_builds(bench, policy):
    trace = _trace(bench)
    engine = Engine(evicting_config(OptimizationConfig.extended(), policy))
    check = ReuseCheck(engine.fill_unit)
    engine.stages.append(check)
    result = engine.run(trace, benchmark=bench)

    reused = engine.fill_unit.stats.segments_reused
    assert reused > 0
    assert check.checked == reused
    blob = json.dumps({"telemetry": result.telemetry}, sort_keys=True)
    cycles, digest = EVICTING_EXTENDED[(bench, policy)]
    assert result.cycles == cycles
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("bench,passes_run", [("compress", 106),
                                              ("li", 95)])
def test_each_build_validates_once(bench, passes_run, monkeypatch):
    """A segment is validated once, where its passes ran: a reused
    build installs the sealed segment itself, and the trace cache
    validates nothing on insert."""
    calls = []
    original = TraceSegment.validate

    def counting(self, *args, **kwargs):
        calls.append(self.start_pc)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TraceSegment, "validate", counting)
    trace = Executor(workloads.build(bench, scale=0.3)).run()
    engine = Engine(evicting_config(OptimizationConfig.all(), "lru"))
    engine.run(trace, bench)
    reused = engine.fill_unit.stats.segments_reused
    assert reused > 0
    assert len(calls) == engine.trace_cache.stats.fills - reused \
        == passes_run
