"""Tests for the future-work passes the paper's §5 proposes:
common-subexpression elimination and dead-code elimination."""

from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.opcodes import Op
from tests.helpers import build_segments

CSE = OptimizationConfig.only("cse")
DCE = OptimizationConfig.only("dead_code")
CSE_MOVES = OptimizationConfig(cse=True, moves=True)


def segment_for(source, opts, **kw):
    _, _, segments = build_segments(source, opts, **kw)
    return segments[0]


# --- CSE ---------------------------------------------------------------

def test_duplicate_add_becomes_move():
    seg = segment_for("""
    main:
        add $t0, $s0, $s1
        add $t1, $s0, $s1
        halt
    """, CSE)
    dup = seg.instrs[1]
    assert dup.op is Op.ADDI and dup.imm == 0 and dup.rs == 8


def test_cse_result_feeds_move_elimination():
    """The eliminated computation becomes a canonical move, which the
    move pass then marks and bypasses — the two passes compose."""
    seg = segment_for("""
    main:
        add $t0, $s0, $s1
        add $t1, $s0, $s1
        add $v0, $t1, $t1
        halt
    """, CSE_MOVES)
    assert seg.instrs[1].move_flag
    assert seg.instrs[2].sources() == (8, 8)   # rewritten to $t0


def test_commutative_match():
    seg = segment_for("""
    main:
        add $t0, $s0, $s1
        add $t1, $s1, $s0
        halt
    """, CSE)
    assert seg.instrs[1].op is Op.ADDI and seg.instrs[1].imm == 0


def test_noncommutative_operand_order_matters():
    seg = segment_for("""
    main:
        sub $t0, $s0, $s1
        sub $t1, $s1, $s0
        halt
    """, CSE)
    assert seg.instrs[1].op is Op.SUB


def test_source_redefinition_blocks_cse():
    seg = segment_for("""
    main:
        add  $t0, $s0, $s1
        addi $s0, $s0, 1
        add  $t1, $s0, $s1    # s0 changed: not a common subexpression
        halt
    """, CSE)
    assert seg.instrs[2].op is Op.ADD


def test_result_redefinition_blocks_cse():
    seg = segment_for("""
    main:
        add  $t0, $s0, $s1
        addi $t0, $zero, 7    # the earlier result is gone
        add  $t1, $s0, $s1
        halt
    """, CSE)
    assert seg.instrs[2].op is Op.ADD


def test_immediates_must_match():
    seg = segment_for("""
    main:
        addi $t0, $s0, 4
        addi $t1, $s0, 8
        halt
    """, CSE)
    assert seg.instrs[1].imm == 8


def test_loads_never_eliminated():
    seg = segment_for("""
    main:
        lw $t0, 0($sp)
        lw $t1, 0($sp)
        halt
    """, CSE)
    assert seg.instrs[1].op is Op.LW


# --- dead code ----------------------------------------------------------

def test_overwritten_value_squashed():
    seg = segment_for("""
    main:
        addi $t0, $s0, 4     # dead: overwritten below, never read
        addi $t0, $s1, 8
        add  $v0, $t0, $t0
        halt
    """, DCE)
    assert seg.instrs[0].op is Op.NOP
    assert seg.instrs[1].op is Op.ADDI


def test_read_before_overwrite_is_live():
    seg = segment_for("""
    main:
        addi $t0, $s0, 4
        add  $t1, $t0, $t0   # reads it first
        addi $t0, $s1, 8
        halt
    """, DCE)
    assert seg.instrs[0].op is Op.ADDI


def test_liveout_values_kept():
    seg = segment_for("""
    main:
        addi $t0, $s0, 4     # live-out of the segment: must stay
        add  $v0, $s1, $s1
        halt
    """, DCE)
    assert seg.instrs[0].op is Op.ADDI


def test_branch_between_defs_blocks_removal():
    """A conditional branch between definition and redefinition may
    exit the segment with the value architecturally live — the paper's
    partial-execution hazard; the conservative pass keeps it."""
    seg = segment_for("""
    main:
        addi $t0, $s0, 4
        beq  $zero, $t9, next
    next:
        addi $t0, $s1, 8
        halt
    """, DCE)
    assert seg.instrs[0].op is Op.ADDI


def test_stores_and_control_never_squashed():
    seg = segment_for("""
    main:
        sw   $t0, 0($sp)
        addi $t0, $s1, 8
        halt
    """, DCE)
    assert seg.instrs[0].op is Op.SW


def test_squashed_nop_keeps_slot_geometry():
    seg = segment_for("""
    main:
        addi $t0, $s0, 4
        addi $t0, $s1, 8
        halt
    """, DCE)
    assert len(seg) == 3
    assert sorted(seg.slots) == [0, 1, 2]
    seg.validate()


def test_extended_config_runs_all_seven():
    from repro.fillunit.opts.base import PassManager
    manager = PassManager(OptimizationConfig.extended())
    names = [p.name for p in manager.passes]
    assert names == ["predication", "cse", "dead_code", "moves",
                     "reassoc", "scaled_adds", "placement"]


def test_dead_code_improves_or_holds_ipc():
    from repro.core.config import SimConfig
    from repro.core.engine import Engine
    from tests.helpers import run_asm
    source = """
    main:
        li   $t9, 300
    loop:
        addi $t0, $s0, 4     # dead every iteration
        addi $t0, $s1, 8
        add  $t1, $t1, $t0
        addi $t2, $t2, 1
        blt  $t2, $t9, loop
        halt
    """
    _, trace = run_asm(source)
    base = Engine(SimConfig.tiny()).run(trace, "t", "base")
    dce = Engine(SimConfig.tiny(
        OptimizationConfig.only("dead_code"))).run(trace, "t", "dce")
    assert dce.ipc >= base.ipc
