"""Symbolic evaluator tests: term normalization is what makes the
fill unit's sound rewrites literally term-equal."""

from repro.isa.instruction import GuardAnnotation, Instruction, \
    ScaleAnnotation
from repro.isa.opcodes import Op
from repro.tracecache.segment import BranchInfo, TraceSegment
from repro.verify.symbolic import (
    add_const,
    add_terms,
    const,
    evaluate_segment,
    init,
    render_term,
    shl,
)


def seg(instrs, branches=(), start_pc=0x1000):
    for idx, instr in enumerate(instrs):
        instr.pc = start_pc + 4 * idx
    return TraceSegment(start_pc=start_pc, instrs=list(instrs),
                        branches=list(branches))


def test_addi_chain_folds_to_single_sum():
    """ADDI+ADDI equals the reassociated single ADDI."""
    chain = seg([
        Instruction(Op.ADDI, rd=9, rs=8, imm=4),
        Instruction(Op.ADDI, rd=10, rs=9, imm=4),
    ])
    single = seg([
        Instruction(Op.ADDI, rd=9, rs=8, imm=4),
        Instruction(Op.ADDI, rd=10, rs=8, imm=8),
    ])
    assert evaluate_segment(chain).read(10) == \
        evaluate_segment(single).read(10) == ("sum", init(8), 8)


def test_sll_add_equals_scaled_add():
    """SLL+ADD equals the ADD annotated with a scale."""
    pair = seg([
        Instruction(Op.SLL, rd=9, rs=8, imm=2),
        Instruction(Op.ADD, rd=10, rs=9, rt=11),
    ])
    scaled_add = Instruction(Op.ADD, rd=10, rs=9, rt=11)
    scaled_add.scale = ScaleAnnotation(src=8, shamt=2)
    scaled = seg([
        Instruction(Op.SLL, rd=9, rs=8, imm=2),
        scaled_add,
    ])
    assert evaluate_segment(pair).read(10) == \
        evaluate_segment(scaled).read(10)


def test_commutative_sort_makes_operand_swap_invisible():
    a = seg([Instruction(Op.ADD, rd=10, rs=8, rt=9)])
    b = seg([Instruction(Op.ADD, rd=10, rs=9, rt=8)])
    assert evaluate_segment(a).read(10) == evaluate_segment(b).read(10)


def test_move_idioms_normalize_to_source():
    """Marked or not, every move idiom evaluates to its source's term
    (the moves pass's alias rewriting relies on these identities)."""
    for instr in (
            Instruction(Op.ADDI, rd=9, rs=8, imm=0),
            Instruction(Op.OR, rd=9, rs=8, rt=0),
            Instruction(Op.XOR, rd=9, rs=0, rt=8),
            Instruction(Op.SUB, rd=9, rs=8, rt=0),
            Instruction(Op.SLL, rd=9, rs=8, imm=0),
    ):
        assert evaluate_segment(seg([instr])).read(9) == init(8)


def test_zero_value_identity_folds():
    """x ^ 0 == x even when the zero comes from a register the segment
    itself zeroed (not the architected zero register)."""
    segment = seg([
        Instruction(Op.ADDI, rd=8, rs=0, imm=0),   # t0 = 0
        Instruction(Op.XOR, rd=9, rs=8, rt=10),    # t1 = 0 ^ t2
    ])
    assert evaluate_segment(segment).read(9) == init(10)


def test_store_log_and_load_epoch():
    segment = seg([
        Instruction(Op.SW, rs=29, rt=8, imm=4),
        Instruction(Op.LW, rd=9, rs=29, imm=4),
    ])
    state = evaluate_segment(segment)
    assert len(state.stores) == 1
    store = state.stores[0]
    assert store.address == ("sum", init(29), 4)
    assert store.value == init(8)
    # the load is tagged with the store epoch it observed
    assert state.read(9) == ("load", "w", ("sum", init(29), 4), 1)


def test_branch_direction_seeds_assumption():
    branch = Instruction(Op.BEQ, rs=8, rt=0, imm=8)
    segment = seg([branch], branches=[
        BranchInfo(index=0, pc=0x1000, direction=False, promoted=False)])
    state = evaluate_segment(segment)
    [cond] = [b.condition for b in state.branches]
    # BEQ not taken along the path => rs == 0 is False
    assert state.assumptions[cond] is False


def test_guard_folds_under_known_assumption():
    """With the branch direction assumed, a guarded body folds to the
    active leg — the predication-equivalence cornerstone."""
    branch = Instruction(Op.BEQ, rs=8, rt=0, imm=8)
    original = seg([
        branch,
        Instruction(Op.ADDI, rd=9, rs=10, imm=1),
    ], branches=[BranchInfo(0, 0x1000, direction=False, promoted=False)])
    orig_state = evaluate_segment(original)

    body = Instruction(Op.ADDI, rd=9, rs=10, imm=1)
    body.guard = GuardAnnotation(reg=8, execute_if_zero=False)
    converted = seg([Instruction(Op.NOP), body])
    opt_state = evaluate_segment(converted,
                                 assumptions=orig_state.assumptions)
    assert opt_state.read(9) == orig_state.read(9)


def test_guard_without_assumption_is_a_select():
    body = Instruction(Op.ADDI, rd=9, rs=10, imm=1)
    body.guard = GuardAnnotation(reg=8, execute_if_zero=False)
    state = evaluate_segment(seg([Instruction(Op.NOP), body]))
    assert state.read(9)[0] == "select"


def test_term_helpers_and_render():
    t = add_terms(add_const(init(8), 4), const(3))
    assert t == ("sum", init(8), 7)
    assert shl(const(2), 3) == const(16)
    assert shl(shl(init(8), 1), 2) == ("shl", init(8), 3)
    text = render_term(("add", (init(8), ("shl", init(9), 2))))
    assert "r8@in" in text and "<< 2" in text
