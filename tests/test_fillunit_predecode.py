"""Pre-decode bit-field tests (the paper's 7 bits per instruction)."""

import pytest

from repro.errors import SegmentError
from repro.fillunit.dependency import mark_dependencies
from repro.fillunit.predecode import (PreDecode, PREDECODE_BITS,
                                      encode_segment, storage_cost_bytes)
from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.tracecache.segment import TraceSegment
from tests.helpers import build_segments


def test_pack_unpack_roundtrip_exhaustive():
    for field in range(1 << PREDECODE_BITS):
        assert PreDecode.unpack(field).pack() == field


def test_pack_rejects_wide_block():
    with pytest.raises(SegmentError):
        PreDecode(True, True, False, False, False, block=4).pack()


def test_unpack_rejects_wide_field():
    with pytest.raises(SegmentError):
        PreDecode.unpack(1 << 7)
    with pytest.raises(SegmentError):
        PreDecode.unpack(-1)


def test_paper_storage_arithmetic():
    """2K lines x 16 instructions x 7 bits = 28KB, exactly the paper's
    trace cache storage breakdown (156KB total = 128KB instructions
    + 28KB pre-decode)."""
    assert storage_cost_bytes() == 28 * 1024
    assert storage_cost_bytes() + 2048 * 16 * 4 == 156 * 1024


def test_encode_real_segment():
    _, _, segments = build_segments("""
    main:
        addi $t0, $s0, 4     # dest t0, src live-in
        add  $t1, $t0, $s1   # src0 internal (t0), src1 live-in
        sw   $t1, 0($sp)     # no dest, src0 live-in (sp), src1 internal
        addi $t0, $t0, 1     # overwrites t0 (first def not live-out)
        halt
    """, OptimizationConfig.none())
    seg = segments[0]
    fields = [PreDecode.unpack(f) for f in encode_segment(seg)]
    assert fields[0].has_dest and not fields[0].dest_liveout
    assert fields[1].src0_internal and not fields[1].src1_internal
    assert not fields[2].has_dest
    assert fields[3].dest_liveout          # the final t0 definition
    assert all(f.block == 0 for f in fields)


def test_encode_block_numbers():
    _, _, segments = build_segments("""
    main:
        addi $t0, $t0, 1
        beq  $zero, $t9, a
    a:
        addi $t0, $t0, 1
        beq  $zero, $t9, b
    b:
        addi $t0, $t0, 1
        halt
    """, OptimizationConfig.none())
    fields = [PreDecode.unpack(f) for f in encode_segment(segments[0])]
    assert [f.block for f in fields] == [0, 0, 1, 1, 2, 2]


def test_encode_bare_segment_marks_its_own_dependencies():
    """The encoder computes the marking it reads: encoding a bare
    segment gives the fields of ``mark_dependencies`` of its
    entries."""
    instrs = [
        Instruction(Op.ADDI, rd=8, rs=16, imm=4, pc=0),
        Instruction(Op.ADD, rd=9, rs=8, rt=17, pc=4),
        Instruction(Op.SW, rt=9, rs=29, imm=0, pc=8),
        Instruction(Op.ADDI, rd=8, rs=8, imm=1, pc=12),
    ]
    deps = mark_dependencies(instrs)
    expected = []
    for idx, instr in enumerate(instrs):
        sources = [reg for reg in instr.sources() if reg != 0][:2]
        internal = [deps.producer[idx][reg] is not None for reg in sources]
        internal += [False] * (2 - len(internal))
        has_dest = instr.dest() is not None
        expected.append(PreDecode(
            has_dest=has_dest, dest_liveout=deps.liveout[idx],
            dest_overwritten_same_group=has_dest and not deps.liveout[idx],
            src0_internal=internal[0], src1_internal=internal[1],
            block=instr.block_id).pack())
    assert encode_segment(TraceSegment(start_pc=0, instrs=instrs)) \
        == expected
    assert [PreDecode.unpack(f).src0_internal for f in expected] == [
        False, True, False, True]
