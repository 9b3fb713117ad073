"""Random programs execute or fail cleanly, and stepping equals running.

Hypothesis builds programs from random instructions: any opcode, with
absent, zero or random register fields, immediates that include jump
targets inside and outside the text segment and misaligned offsets,
an occasional dynamic-predication guard, and a final ``halt``. Each
program runs under a small instruction limit. ``Executor.run`` either
finishes or raises :class:`ExecutionError`; any other exception is a
bug. Stepping the same program with ``Executor.step`` must give the
same records, final state and error as running it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.isa.instruction import GuardAnnotation, Instruction
from repro.isa.opcodes import Op
from repro.machine import Executor
from repro.program import Program

TEXT_BASE = 0x1000
LIMIT = 500

register = st.one_of(st.none(), st.just(0), st.integers(0, 31))


@st.composite
def immediate(draw, length: int):
    """An immediate: a branch displacement or jump target inside the
    text, one just outside it, a misaligned offset or any 16-bit
    value."""
    kind = draw(st.sampled_from(["none", "zero", "displacement", "target",
                                 "outside", "misaligned", "any"]))
    if kind == "none":
        return None
    if kind == "zero":
        return 0
    if kind == "displacement":
        return 4 * draw(st.integers(-length, length))
    if kind == "target":
        return TEXT_BASE + 4 * draw(st.integers(0, length - 1))
    if kind == "outside":
        return draw(st.sampled_from([TEXT_BASE - 4, TEXT_BASE + 4 * length,
                                     0, 0x7FFFFFFC]))
    if kind == "misaligned":
        return 4 * draw(st.integers(-length, length)) + draw(
            st.integers(1, 3))
    return draw(st.integers(-0x8000, 0x7FFF))


@st.composite
def program(draw) -> Program:
    length = draw(st.integers(1, 24))
    instrs = []
    for _ in range(length):
        guard = None
        if draw(st.integers(0, 9)) == 0:
            guard = GuardAnnotation(draw(st.integers(0, 31)),
                                    draw(st.booleans()))
        instrs.append(Instruction(
            draw(st.sampled_from(list(Op))), rd=draw(register),
            rs=draw(register), rt=draw(register),
            imm=draw(immediate(length + 1)), guard=guard))
    instrs.append(Instruction(Op.HALT))
    return Program(instrs, text_base=TEXT_BASE)


def _fields(record) -> tuple:
    return (record.seq, record.pc, id(record.instr), record.next_pc,
            record.taken, record.mem_addr, record.mem_size,
            record.is_store)


def _machine(executor: Executor) -> tuple:
    return (executor.state.regs, executor.state.pc, executor.halted,
            executor.instructions_retired, executor.output,
            executor.memory.snapshot())


def _run(prog: Program):
    executor = Executor(prog)
    try:
        trace = executor.run(max_instructions=LIMIT)
    except ExecutionError as err:
        return None, str(err), _machine(executor)
    return [_fields(r) for r in trace], None, _machine(executor)


def _step(prog: Program):
    executor = Executor(prog)
    records = []
    try:
        while not executor.halted:
            if executor.instructions_retired >= LIMIT:
                return None, (f"program did not halt within {LIMIT} "
                              f"instructions (pc={executor.state.pc:#x})"
                              ), _machine(executor)
            records.append(_fields(executor.step()))
    except ExecutionError as err:
        return None, str(err), _machine(executor)
    return records, None, _machine(executor)


@settings(max_examples=150, deadline=None)
@given(program())
def test_step_and_run_agree_and_fail_only_with_execution_error(prog):
    assert _run(prog) == _step(prog)
