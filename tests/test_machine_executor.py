"""Functional executor tests."""

import hashlib

import pytest

from repro import workloads
from repro.errors import ExecutionError
from repro.asm import assemble
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine import ArchState, Executor, Memory
from tests.helpers import execute_sequence, run_asm


def test_arithmetic_program():
    _, trace = run_asm("""
    main:
        li   $t0, 6
        li   $t1, 7
        mult $t2, $t0, $t1
        move $a0, $t2
        li   $v0, 1
        syscall
        halt
    """)
    assert trace.output == [42]


def test_loop_sum():
    _, trace = run_asm("""
    main:
        li   $t0, 10
        move $t1, $zero
    loop:
        add  $t1, $t1, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $t1
        li   $v0, 1
        syscall
        halt
    """)
    assert trace.output == [55]


def test_memory_program():
    _, trace = run_asm("""
        .data
    arr: .word 3, 1, 4, 1, 5
        .text
    main:
        la   $s0, arr
        li   $t0, 5
        move $t1, $zero
    loop:
        lw   $t2, 0($s0)
        add  $t1, $t1, $t2
        addi $s0, $s0, 4
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $t1
        li   $v0, 1
        syscall
        halt
    """)
    assert trace.output == [14]


def test_call_and_return():
    _, trace = run_asm("""
    main:
        li   $a0, 5
        jal  double
        move $a0, $v0
        li   $v0, 1
        syscall
        halt
    double:
        add  $v0, $a0, $a0
        ret
    """)
    assert trace.output == [10]


def test_recursion():
    _, trace = run_asm("""
    main:
        li   $a0, 6
        jal  fact
        move $a0, $v0
        li   $v0, 1
        syscall
        halt
    fact:
        blez $a0, base
        addi $sp, $sp, -8
        sw   $ra, 0($sp)
        sw   $a0, 4($sp)
        addi $a0, $a0, -1
        jal  fact
        lw   $t0, 4($sp)
        mult $v0, $v0, $t0
        lw   $ra, 0($sp)
        addi $sp, $sp, 8
        ret
    base:
        li   $v0, 1
        ret
    """)
    assert trace.output == [720]


def test_trace_records_control_flow():
    _, trace = run_asm("""
    main:
        li   $t0, 2
    loop:
        addi $t0, $t0, -1
        bgtz $t0, loop
        halt
    """)
    branches = [r for r in trace if r.instr.is_cond_branch()]
    assert [r.taken for r in branches] == [True, False]
    taken = branches[0]
    assert taken.next_pc != taken.pc + 4


def test_trace_records_memory():
    _, trace = run_asm("""
        .data
    v: .word 9
        .text
    main:
        la  $t0, v
        lw  $t1, 0($t0)
        sw  $t1, 4($t0)
        halt
    """)
    loads = [r for r in trace if r.instr.is_load()]
    stores = [r for r in trace if r.instr.is_store()]
    assert len(loads) == 1 and len(stores) == 1
    assert stores[0].mem_addr == loads[0].mem_addr + 4
    assert stores[0].is_store and not loads[0].is_store


def test_syscall_print_char():
    _, trace = run_asm("""
    main:
        li $v0, 11
        li $a0, 65
        syscall
        halt
    """)
    assert trace.output == ["A"]


def test_syscall_exit():
    _, trace = run_asm("""
    main:
        li $v0, 10
        syscall
        nop
        halt
    """)
    # exits at the syscall; the nop/halt never retire
    assert trace[-1].instr.op.value == "syscall"


def test_runaway_program_raises():
    prog = assemble("loop: j loop\n")
    with pytest.raises(ExecutionError) as err:
        Executor(prog).run(max_instructions=1000)
    assert "did not halt" in str(err.value)


def test_running_a_halted_machine_retires_nothing():
    prog = assemble("halt\n")
    ex = Executor(prog)
    assert len(ex.run()) == 1
    assert ex.halted
    assert len(ex.run()) == 0
    assert ex.instructions_retired == 1


def test_fetch_outside_text_raises():
    prog = assemble("jr $t0\n")  # t0 = 0: jumps to unmapped address
    ex = Executor(prog)
    with pytest.raises(ExecutionError, match="fetch outside text: 0x0"):
        ex.run()
    # the jump retired; the failed fetch neither retires nor moves on
    assert ex.instructions_retired == 1
    assert ex.state.pc == 0


def test_loader_initializes_sp_gp_pc():
    prog = assemble(".data\nx: .word 1\n.text\nmain: halt\n")
    ex = Executor(prog)
    assert ex.state.pc == prog.entry
    assert ex.state.read_reg(29) > 0
    assert ex.state.read_reg(28) == prog.data_base


def test_r0_stays_zero():
    _, trace = run_asm("""
    main:
        addi $zero, $zero, 55
        move $a0, $zero
        li   $v0, 1
        syscall
        halt
    """)
    assert trace.output == [0]


def test_run_records_its_program():
    prog = assemble("main: halt\n")
    trace = Executor(prog).run()
    assert len(trace) == 1
    assert trace.program is prog


def test_execute_sequence_straight_line():
    prog = assemble("""
        addi $t0, $zero, 4
        sll  $t1, $t0, 2
        add  $t2, $t1, $t0
        halt
    """)
    state, mem = ArchState(), Memory()
    execute_sequence(prog.instructions[:3], state, mem)
    assert state.read_reg(10) == 20


def test_dynamic_op_mix():
    _, trace = run_asm("""
    main:
        lw   $t0, 0($sp)
        sw   $t0, 4($sp)
        add  $t1, $t0, $t0
        halt
    """)
    mix = trace.dynamic_op_mix()
    assert mix["load"] == 1 and mix["store"] == 1
    assert trace.conditional_branch_count() == 0


#: sha256 prefixes of each workload's committed stream at scale 0.1:
#: every record's fields, the final registers and pc, the output and
#: the memory image. Recorded before the executor's run loop was
#: rewritten, so the loop is checked against a fixed record.
STREAM_DIGESTS = {
    "compress": "2afe04aa89771c81",
    "gcc": "a4a5f198d9371198",
    "go": "05ffccee36cbfcc8",
    "ijpeg": "700fdabe26bf9685",
    "li": "f1959b4cc566b6ad",
    "m88ksim": "8527cf7797620c05",
    "perl": "b1ad68da4ddcf2d5",
    "vortex": "bde3d58da3aa7441",
    "gnuchess": "59f3f32b44263b7e",
    "ghostscript": "a72fa1d77d422674",
    "pgp": "4c65b3a378789393",
    "gnuplot": "5e2b80b6db1ad14c",
    "python": "9396240d5a926cbb",
    "sim-outorder": "f53a7cf73b37fd44",
    "tex": "02aeca782f884f8e",
}


def _stream_digest(name: str) -> str:
    executor = Executor(workloads.build(name, 0.1))
    trace = executor.run()
    digest = hashlib.sha256()
    for seq, r in enumerate(trace):
        digest.update(repr((seq, r.pc, r.instr.op.value, r.next_pc,
                            r.taken, r.mem_addr, r.mem_size,
                            r.is_store)).encode())
    final = trace.final_state
    digest.update(repr((final.regs, final.pc)).encode())
    digest.update(repr(trace.output).encode())
    for key, page in sorted(executor.memory.snapshot().items()):
        digest.update(repr(key).encode())
        digest.update(page)
    return digest.hexdigest()[:16]


def test_stream_digests_cover_every_workload():
    assert sorted(STREAM_DIGESTS) == sorted(workloads.names())


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_committed_stream_matches_pinned_digest(name):
    assert _stream_digest(name) == STREAM_DIGESTS[name]


@pytest.mark.parametrize("name", ["compress", "li", "m88ksim"])
def test_only_memory_records_are_fresh(name):
    """A load or store gets a fresh record each time it executes; every
    other record is shared by all executions with its pc and next pc."""
    trace = Executor(workloads.build(name, 0.1)).run()
    memory = sum(1 for r in trace if r.mem_addr is not None)
    edges = {(r.pc, r.next_pc) for r in trace if r.mem_addr is None}
    assert len({id(r) for r in trace}) == memory + len(edges)


def test_engine_writes_no_committed_record():
    """Records are shared, so the timing model must only read them: a
    full run leaves every record's fields as the executor made them."""
    trace = Executor(workloads.build("compress", 0.1)).run()
    assert len({id(r) for r in trace}) < len(trace) // 2   # shared

    def fields():
        return [(r.pc, id(r.instr), r.next_pc, r.taken, r.mem_addr,
                 r.mem_size, r.is_store) for r in trace]

    before = fields()
    Engine(SimConfig.paper(OptimizationConfig.all())).run(
        trace, "compress", "all")
    assert fields() == before
