"""Random programs execute or fail cleanly, as the reference does.

Hypothesis builds programs from random instructions: any opcode, with
absent, zero or random register fields, immediates that include jump
targets inside and outside the text segment and misaligned offsets,
an occasional dynamic-predication guard, and a final ``halt``. Each
program runs under a small instruction limit. ``Executor.run`` either
finishes or raises :class:`ExecutionError`; any other exception is a
bug. The reference interpreter (``tests.helpers.ReferenceMachine``: one
``evaluate`` call and a fresh record per instruction) must give the
same records, field by field, the same registers, pc, retired count,
output and memory image, and the same error text and machine state
after a fault.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.isa.instruction import GuardAnnotation, Instruction
from repro.isa.opcodes import Op
from repro.machine import Executor
from repro.program import Program
from tests.helpers import ReferenceMachine

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


def _fields(records) -> list:
    return [(index, record.pc, id(record.instr), record.next_pc,
             record.taken, record.mem_addr, record.mem_size,
             record.is_store) for index, record in enumerate(records)]


def _machine(machine) -> tuple:
    return (machine.state.regs, machine.state.pc, machine.halted,
            machine.instructions_retired, machine.output,
            machine.memory.snapshot())


def _run(machine, run):
    try:
        records = run(LIMIT)
    except ExecutionError as err:
        return None, str(err), _machine(machine)
    return _fields(records), None, _machine(machine)


@settings(max_examples=150, deadline=None)
@given(program())
def test_run_matches_the_reference_and_fails_only_with_execution_error(
        prog):
    executor = Executor(prog)
    reference = ReferenceMachine(prog)
    assert (_run(executor, lambda limit: executor.run(limit).records)
            == _run(reference, reference.run))
