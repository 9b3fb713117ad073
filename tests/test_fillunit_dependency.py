"""Placement's dependency marking: each entry's segment-internal
producers, as the bitmask the pass tests against a cluster's members."""

from repro.fillunit.opts.placement import _producer_masks
from repro.isa.instruction import Instruction, ScaleAnnotation
from repro.isa.opcodes import Op


def producers(instrs):
    """Per entry, the indices its producer mask names."""
    return [{bit for bit in range(len(instrs)) if mask >> bit & 1}
            for mask in _producer_masks(instrs)]


def test_internal_producer_identified():
    instrs = [Instruction(Op.ADDI, rd=8, rs=9, imm=1),
              Instruction(Op.ADD, rd=10, rs=8, rt=11)]
    assert producers(instrs) == [set(), {0}]


def test_register_zero_never_a_dependence():
    instrs = [Instruction(Op.ADDI, rd=0, rs=1, imm=1),
              Instruction(Op.ADD, rd=8, rs=0, rt=1)]
    assert producers(instrs) == [set(), set()]


def test_latest_definition_wins():
    instrs = [Instruction(Op.ADDI, rd=8, rs=9, imm=1),
              Instruction(Op.ADDI, rd=8, rs=9, imm=2),
              Instruction(Op.ADD, rd=10, rs=8, rt=9)]
    assert producers(instrs)[2] == {1}


def test_annotation_aware_sources():
    """A scaled add depends on the shift's SOURCE, not the shift."""
    instrs = [Instruction(Op.SLL, rd=8, rs=9, imm=2),
              Instruction(Op.ADD, rd=10, rs=8, rt=11,
                          scale=ScaleAnnotation(src=9, shamt=2))]
    assert producers(instrs)[1] == set()


def test_move_flag_collapses_sources():
    instrs = [Instruction(Op.ADDI, rd=8, rs=9, imm=1),
              Instruction(Op.ADDI, rd=10, rs=8, imm=0, move_flag=True)]
    assert producers(instrs)[1] == {0}


def test_store_value_is_a_source():
    instrs = [Instruction(Op.ADDI, rd=8, rs=0, imm=7),
              Instruction(Op.SWX, rd=8, rs=29, rt=30)]
    assert producers(instrs)[1] == {0}


def test_branch_sources_tracked():
    instrs = [Instruction(Op.SLT, rd=1, rs=8, rt=9),
              Instruction(Op.BNE, rs=1, rt=0, imm=-4)]
    assert producers(instrs)[1] == {0}


def test_empty_segment():
    assert _producer_masks([]) == []
