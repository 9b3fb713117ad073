"""The iterative forward dataflow framework: reaching definitions."""

from repro.analysis.static.cfg import build_cfg
from repro.analysis.static.dataflow import (
    ENTRY_DEF,
    ReachingDefinitions,
    instr_uses,
    solve,
)
from repro.asm import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op

T0, T1 = 8, 9

MERGE = """
main:
    li   $t0, 1
    beq  $t0, $zero, other
    addi $t1, $t0, 1
    j    join
other:
    addi $t1, $t0, 2
join:
    add  $a0, $t1, $zero
    li   $v0, 1
    syscall
    halt
"""


def _instr_value(cfg, result, pc):
    block = cfg.block_of(pc)
    offset = (pc - block.start) // 4
    return result.instr_values(block.index)[offset]


def test_reaching_defs_merge_at_join():
    cfg = build_cfg(assemble(MERGE))
    result = solve(cfg, ReachingDefinitions())
    join_pc = cfg.program.symbols["join"]
    reach = _instr_value(cfg, result, join_pc)
    # $t1 was defined in both arms: two defining PCs survive the join.
    defs = reach[T1]
    assert len(defs) == 2
    arm_ops = {cfg.program.instr_at(pc).op for pc in defs}
    assert arm_ops == {Op.ADDI}


def test_entry_registers_reach_the_first_instruction():
    cfg = build_cfg(assemble(MERGE))
    result = solve(cfg, ReachingDefinitions())
    entry_pc = cfg.blocks[cfg.entry].start
    reach = _instr_value(cfg, result, entry_pc)
    for reg in (0, 28, 29):      # $zero, $gp, $sp
        assert reach[reg] == frozenset({ENTRY_DEF})
    assert T0 not in reach       # nothing else is defined yet


def test_loop_reaches_itself():
    cfg = build_cfg(assemble("""
main:
    li   $t0, 3
loop:
    addi $t0, $t0, -1
    bgtz $t0, loop
    halt
"""))
    result = solve(cfg, ReachingDefinitions())
    loop_pc = cfg.program.symbols["loop"]
    reach = _instr_value(cfg, result, loop_pc)
    # Around the back edge, the addi's own definition reaches its input
    # alongside the initial li.
    assert reach[T0] == frozenset({cfg.program.symbols["main"], loop_pc})


def test_instr_uses():
    assert instr_uses(Instruction(Op.ADDI, rd=T1, rs=T0, imm=4)) == (T0,)
    # Syscalls read their service/argument registers out of band.
    assert instr_uses(Instruction(Op.SYSCALL)) == (2, 4)


def test_single_block_function_dataflow():
    # a whole function in one basic block: its extent is that block,
    # and dataflow works without any internal edge.
    from repro.analysis.static.functions import find_functions

    cfg = build_cfg(assemble("""
main:
    jal  tiny
    li   $v0, 10
    syscall
    halt
tiny:
    addi $t0, $t0, 5
    jr   $ra
"""))
    tiny = cfg.program.symbols["tiny"]
    info = find_functions(cfg)[tiny]
    block = cfg.block_of(tiny)
    assert (info.entry, info.end) == (block.start, block.last.pc + 4)
    assert not info.fall_off
    result = solve(cfg, ReachingDefinitions())
    jr_pc = tiny + 4
    reach = _instr_value(cfg, result, jr_pc)
    assert tiny in reach[T0]
