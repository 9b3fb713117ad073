"""Tests for the extended optimization configuration: the paper's four
fill-unit passes plus dynamic predication, run as one pipeline."""

from repro.fillunit.opts.base import OptimizationConfig, PassManager
from repro.isa.opcodes import Op
from tests.helpers import build_segments

EXTENDED = OptimizationConfig.extended()

HAMMOCK = """
main:
    li   $t9, 3
loop:
    andi $t5, $t0, 1
    beq  $t5, $zero, skip
    addi $t1, $t1, 17
skip:
    addi $t0, $t0, 1
    blt  $t0, $t9, loop
    halt
"""


def test_squashed_nop_keeps_slot_geometry():
    """A branch squashed to a NOP by predication keeps its entry and its
    issue slot after every later pass of the extended pipeline."""
    _, _, segments = build_segments(HAMMOCK, EXTENDED)
    _, _, plain = build_segments(HAMMOCK, OptimizationConfig.none())
    squashed = [seg for seg in segments
                if any(i.op is Op.NOP for i in seg.instrs)]
    assert squashed
    assert len(segments) == len(plain)
    for seg, original in zip(segments, plain):
        assert len(seg) == len(original)
        assert sorted(seg.slots) == list(range(len(seg)))
        seg.validate()


def test_extended_config_runs_all_seven():
    """The extended pipeline runs every pass the configuration offers,
    predication first and placement last."""
    manager = PassManager(EXTENDED)
    names = [p.name for p in manager.passes]
    assert names == ["predication", "moves", "reassoc", "scaled_adds",
                     "placement"]
