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
from repro.fillunit.collector import (FillCollector, PendingBranch,
                                      PendingSegment)
from repro.fillunit.opts.base import OptimizationConfig
from repro.fillunit.unit import FillUnit, FillUnitConfig
from repro.isa.decoded import Decoded
from repro.machine import run_program
from repro.tracecache.cache import TraceCache, TraceCacheConfig
from tests.helpers import evicting_config, run_asm


def make_unit(opts: OptimizationConfig) -> FillUnit:
    return FillUnit(FillUnitConfig(latency=1, optimizations=opts),
                    TraceCache(TraceCacheConfig(num_sets=16, assoc=2)),
                    BiasTable(64, threshold=8))


def content(segment) -> tuple:
    """Everything a fetch or a later observer can read of a segment."""
    instrs = [({f.name: getattr(instr, f.name)
                for f in dataclasses.fields(instr)},
               {name: getattr(instr.decoded, name)
                for name in Decoded.__slots__})
              for instr in segment.instrs]
    return (segment.start_pc, segment.block_count, instrs, segment.slots,
            segment.branches, segment.deps, segment.build_promo,
            segment.branch_at, segment.predicated)


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
    assert unit.pass_totals["predicated_branches"] == 1

    again = unit.build_segment(candidate)
    assert unit.stats.segments_reused == 1
    assert again is not plain and again.instrs is plain.instrs
    assert content(again) == content(plain)
    assert unit.pass_totals["predicated_branches"] == 1


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
        window, [PendingBranch(15, last.pc, last.taken, promoted)],
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
        fresh = FillUnit(self.unit.config,
                         TraceCache(TraceCacheConfig()), self.unit.bias)
        assert content(segment) == content(
            fresh.build_segment(self.candidate, cycle))
        self.checked += 1


#: cycles and sha256 of ``{"telemetry", "pass_totals"}`` (sorted-key
#: JSON) at scale 0.15 on the evicting machine under ``extended()``,
#: recorded before the fill unit reused segments
EVICTING_EXTENDED = {
    ("compress", "lru"): (5328, "e8c384fd5f2a24872bbf8a9cbcd6f85e"
                                "ef7b5f7c566b20cae54bc373c4d7dbd4"),
    ("compress", "srrip"): (5308, "4101dc68532bfaa095ed0ec58a1e75a6"
                                  "741e1da15e350b2f8f9cb01eccd287a0"),
    ("compress", "trrip"): (5305, "48030ae278821315b37cd83eae056381"
                                  "72cc87e1d21cbc2f5ea60b5fbe78f244"),
    ("li", "lru"): (4280, "fe86ea39507b510bf3053849b7a9d110"
                          "2e76c596d54710099b80654c4f53316b"),
    ("li", "srrip"): (4302, "d313daf0961c7e0a41194daf352105fc"
                            "53aed89c1f48322febebe199f6b5757e"),
    ("li", "trrip"): (4265, "a78b0a8ba933c46418a6806d74397e97"
                            "8d34b6a6fd31ce0fa298e45c8a06ed4d"),
    ("gcc", "lru"): (3483, "86c87a0452a8ed77abccabd0cd04ae07"
                           "9e3bed801d5eceb842b28436234482d6"),
    ("gcc", "srrip"): (3378, "9f7e200fad8969a22aa5de97d560ecd3"
                             "eb4b853faa96fd2162aee090c033cab9"),
    ("gcc", "trrip"): (3345, "cedbe6b8fafb25bd9b2752cc54563321"
                             "a4e97f4807502c943c35eafdef786333"),
}

_RUNS: dict = {}


def _program_and_trace(bench: str):
    if bench not in _RUNS:
        program = workloads.build(bench, scale=0.15)
        _RUNS[bench] = (program, run_program(program))
    return _RUNS[bench]


@pytest.mark.parametrize("bench,policy", sorted(EVICTING_EXTENDED))
def test_reused_segments_equal_fresh_builds(bench, policy):
    program, trace = _program_and_trace(bench)
    engine = Engine(evicting_config(OptimizationConfig.extended(), policy))
    check = ReuseCheck(engine.fill_unit)
    engine.stages.append(check)
    result = engine.run(trace, benchmark=bench, program=program)

    reused = engine.fill_unit.stats.segments_reused
    assert reused > 0
    assert check.checked == reused
    blob = json.dumps({"telemetry": result.telemetry,
                       "pass_totals": result.pass_totals}, sort_keys=True)
    cycles, digest = EVICTING_EXTENDED[(bench, policy)]
    assert result.cycles == cycles
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
