"""Dynamic-predication pass tests (paper §1's transformation class)."""

from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.instruction import GuardAnnotation, Instruction
from repro.isa.opcodes import Op
from repro.isa.semantics import evaluate
from tests.helpers import build_segments

PRED = OptimizationConfig.only("predication")

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


def segments_for(source, opts=PRED, **kw):
    _, _, segments = build_segments(source, opts, **kw)
    return segments


def find_guarded(segments):
    return [i for seg in segments for i in seg.instrs
            if i.guard is not None]


def test_fallthrough_hammock_converted():
    segments = segments_for(HAMMOCK)
    guarded = find_guarded(segments)
    assert guarded
    body = guarded[0]
    assert body.op is Op.ADDI and body.imm == 17
    assert body.guard.reg == 13                # $t5
    assert body.guard.execute_if_zero is False  # beq skips when zero


def test_branch_becomes_nop_and_leaves_branch_list():
    segments = segments_for(HAMMOCK)
    plain = segments_for(HAMMOCK, OptimizationConfig.none())
    assert find_guarded(segments)
    assert len(segments) == len(plain)
    for seg, original in zip(segments, plain):
        for idx, instr in enumerate(seg.instrs):
            if instr.guard is not None:
                assert seg.instrs[idx - 1].op is Op.NOP
        for info in seg.branches:
            assert seg.instrs[info.index].is_cond_branch()
        # the squashed branch keeps its slot: same length, one issue
        # slot per entry
        assert len(seg) == len(original)
        assert sorted(seg.slots) == list(range(len(seg)))
        seg.validate()


def test_taken_path_segments_not_converted():
    """A segment built from the taken path has no hammock body to
    guard; its branch must survive."""
    segments = segments_for(HAMMOCK)
    taken_like = [seg for seg in segments
                  if any(i.is_cond_branch() and i.op is Op.BEQ
                         for i in seg.instrs)]
    for seg in taken_like:
        beqs = [i for i in seg.instrs if i.op is Op.BEQ]
        assert beqs     # the surviving, taken-direction occurrences


def test_promoted_branch_not_converted():
    """Strongly biased branches predict fine; predication would only
    add a data dependence (the pass checks the bias table)."""
    segments = segments_for("""
    main:
        li   $t9, 40
    loop:
        beq  $zero, $t8, skip    # t8 stays 0: never taken, promotable
        addi $t1, $t1, 1
    skip:
        addi $t0, $t0, 1
        blt  $t0, $t9, loop
        halt
    """, promote_all=True)
    assert not find_guarded(segments)


def test_memory_body_not_converted():
    segments = segments_for("""
    main:
        andi $t5, $t0, 1
        beq  $t5, $zero, skip
        sw   $t1, 0($sp)
    skip:
        halt
    """)
    assert not find_guarded(segments)


def test_multi_instruction_skip_not_converted():
    segments = segments_for("""
    main:
        andi $t5, $t0, 1
        beq  $t5, $zero, skip
        addi $t1, $t1, 1
        addi $t2, $t2, 2
    skip:
        halt
    """)
    assert not find_guarded(segments)


def test_compare_two_registers_not_converted():
    segments = segments_for("""
    main:
        andi $t5, $t0, 1
        beq  $t5, $t6, skip
        addi $t1, $t1, 1
    skip:
        halt
    """)
    assert not find_guarded(segments)


def test_bne_sense_inverted():
    segments = segments_for("""
    main:
        li   $t5, 1
        bne  $t5, $zero, skip    # taken... need fall-through: use t5=0
        addi $t1, $t1, 1
    skip:
        halt
    """)
    # t5 == 1: bne taken -> taken-path segment -> no conversion here.
    assert not find_guarded(segments)
    segments = segments_for("""
    main:
        bne  $t5, $zero, skip    # t5 == 0: falls through
        addi $t1, $t1, 1
    skip:
        halt
    """)
    guarded = find_guarded(segments)
    assert guarded and guarded[0].guard.execute_if_zero is True


def test_guard_semantics_both_outcomes():
    body = Instruction(Op.ADDI, rd=9, rs=9, imm=17,
                       guard=GuardAnnotation(reg=13,
                                             execute_if_zero=False))
    active = evaluate(body, {9: 100, 13: 1}.get)
    assert active.value == 117
    inactive = evaluate(body, {9: 100, 13: 0}.get)
    assert inactive.dest == 9 and inactive.value == 100


def test_pipeline_removes_mispredicts():
    """End to end: an unpredictable single-instruction hammock stops
    mispredicting once predicated, and IPC improves."""
    from repro.core.config import SimConfig
    from repro.core.engine import Engine
    from tests.helpers import run_asm
    source = """
    main:
        li   $t9, 800
        li   $t5, 12345
        li   $t7, 30341
    loop:
        mult $t5, $t5, $t7
        addi $t5, $t5, 13
        srl  $t6, $t5, 7
        andi $t6, $t6, 1
        beq  $t6, $zero, skip
        addi $t1, $t1, 17
    skip:
        addi $t0, $t0, 1
        blt  $t0, $t9, loop
        halt
    """
    _, trace = run_asm(source)
    base = Engine(SimConfig.paper()).run(trace, "t", "base")
    pred = Engine(SimConfig.paper(PRED)).run(trace, "t", "pred")
    assert pred.mispredicts < base.mispredicts / 4
    assert pred.ipc > base.ipc
    assert pred.predicated_branches > 100
    assert pred.predication_phantoms > 50
    # instruction accounting is conserved despite phantoms
    assert pred.instructions == base.instructions == len(trace)


def test_guarded_instruction_sources_include_guard_and_dest():
    body = Instruction(Op.ADDI, rd=9, rs=8, imm=4,
                       guard=GuardAnnotation(reg=13,
                                             execute_if_zero=True))
    assert set(body.sources()) == {8, 13, 9}
