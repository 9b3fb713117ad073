"""The central correctness property of the whole paper: a trace segment
transformed by the fill unit, executed fully on-path, leaves the
architectural state EXACTLY as the original instruction sequence would.

We generate random straight-line-with-branches programs, chop them into
segments exactly as the fill unit does, optimize with every combination
of passes, then execute original and transformed sequences on identical
machines and require identical register files and memories.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.bias import BiasTable
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.machine.memory import Memory
from repro.machine.state import ArchState
from repro.tracecache.cache import TraceCacheConfig
from tests.helpers import execute_sequence, make_fill_unit

# Generated programs use registers 8-15 and a data region at DATA_BASE.
DATA_BASE = 0x10000
DATA_WORDS = 64

regs = st.integers(min_value=8, max_value=15)
small_imm = st.integers(min_value=-64, max_value=64)
shifts = st.integers(min_value=0, max_value=4)


@st.composite
def straightline_instr(draw):
    """One random instruction, memory accesses confined to the window."""
    kind = draw(st.sampled_from(
        ["addi", "add", "sub", "xor", "or", "sll", "move", "zero",
         "lw", "sw", "mult"]))
    if kind == "addi":
        return Instruction(Op.ADDI, rd=draw(regs), rs=draw(regs),
                           imm=draw(small_imm))
    if kind == "move":
        return Instruction(Op.ADDI, rd=draw(regs), rs=draw(regs), imm=0)
    if kind == "zero":
        return Instruction(Op.ADD, rd=draw(regs), rs=0, rt=draw(regs))
    if kind == "sll":
        return Instruction(Op.SLL, rd=draw(regs), rs=draw(regs),
                           imm=draw(shifts))
    if kind == "lw":
        slot = draw(st.integers(min_value=0, max_value=DATA_WORDS - 1))
        return Instruction(Op.LW, rd=draw(regs), rs=31, imm=4 * slot)
    if kind == "sw":
        slot = draw(st.integers(min_value=0, max_value=DATA_WORDS - 1))
        return Instruction(Op.SW, rt=draw(regs), rs=31, imm=4 * slot)
    if kind == "mult":
        return Instruction(Op.MULT, rd=draw(regs), rs=draw(regs),
                           rt=draw(regs))
    op = {"add": Op.ADD, "sub": Op.SUB, "xor": Op.XOR, "or": Op.OR}[kind]
    return Instruction(op, rd=draw(regs), rs=draw(regs), rt=draw(regs))


@st.composite
def trace_programs(draw):
    """A list of 4-24 instructions with occasional not-taken branches
    (pc-contiguous, so the whole list is one dynamic path)."""
    length = draw(st.integers(min_value=4, max_value=24))
    instrs = []
    for idx in range(length):
        if idx > 0 and idx < length - 1 and draw(st.booleans()) \
                and draw(st.booleans()):
            # a never-taken branch: r0 != r0+... use BNE r0, r0 (never)
            instr = Instruction(Op.BNE, rs=0, rt=0, imm=8)
        else:
            instr = draw(straightline_instr())
        instr.pc = 0x1000 + 4 * idx
        instrs.append(instr)
    seeds = draw(st.lists(st.integers(min_value=-1000, max_value=1000),
                          min_size=8, max_size=8))
    return instrs, seeds


def seed_machine(seeds):
    state = ArchState()
    for reg, value in zip(range(8, 16), seeds):
        state.write_reg(reg, value)
    state.write_reg(31, DATA_BASE)   # base register for generated lw/sw
    memory = Memory()
    for slot in range(DATA_WORDS):
        memory.store_word(DATA_BASE + 4 * slot, slot * 2654435761 % 997)
    return state, memory


def fake_records(instrs):
    """Wrap static instructions as committed records (all branches
    not-taken by construction)."""
    from repro.machine.tracing import CommittedInstr
    return [CommittedInstr(instr.pc, instr, instr.pc + 4)
            for instr in instrs]


OPT_SETS = [
    OptimizationConfig.only("moves"),
    OptimizationConfig.only("reassoc"),
    OptimizationConfig.only("scaled_adds"),
    OptimizationConfig.only("placement"),
    OptimizationConfig.all(),
    OptimizationConfig.extended(),
    OptimizationConfig(moves=True, reassoc=True,
                       reassoc_cross_flow_only=False),
]


@given(trace_programs(), st.sampled_from(OPT_SETS))
@settings(max_examples=200, deadline=None)
def test_optimized_segment_architecturally_equivalent(program, opts):
    instrs, seeds = program
    unit = make_fill_unit(BiasTable(64), opts,
                          TraceCacheConfig(num_sets=16, assoc=2))
    collector = FillCollector(BiasTable(64))
    segments = []
    for record in fake_records(instrs):
        for candidate in collector.add(record):
            segments.append(unit.build_segment(candidate))
    for tail in collector.flush():
        segments.append(unit.build_segment(tail))

    ref_state, ref_mem = seed_machine(seeds)
    opt_state, opt_mem = seed_machine(seeds)
    execute_sequence(instrs, ref_state, ref_mem)
    for segment in segments:
        segment.validate()
        execute_sequence(segment.instrs, opt_state, opt_mem)

    assert opt_state.regs == ref_state.regs
    assert opt_mem.snapshot() == ref_mem.snapshot()


@given(trace_programs())
@settings(max_examples=100, deadline=None)
def test_baseline_segments_do_not_transform(program):
    instrs, _ = program
    unit = make_fill_unit(BiasTable(64), OptimizationConfig.none(),
                          TraceCacheConfig(num_sets=16, assoc=2))
    collector = FillCollector(BiasTable(64))
    for record in fake_records(instrs):
        for candidate in collector.add(record):
            segment = unit.build_segment(candidate)
            assert not any(i.move_flag or i.reassociated or i.scale
                           for i in segment.instrs)
            assert segment.slots == list(range(len(segment)))
