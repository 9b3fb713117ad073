"""Predication-specific equivalence property.

Dynamic predication is the one transformation whose equivalence claim
is *stronger* than on-path equivalence: the transformed segment must be
architecturally correct on EITHER outcome of the converted branch. The
straight-line replay of test_prop_equivalence cannot check that (it
ignores branch outcomes), so this suite executes both the original and
the transformed instruction lists under *hammock semantics* — honoring
conditional-branch skips — from hypothesis-generated register states
that drive the guards both ways.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.bias import BiasTable
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.semantics import evaluate
from repro.machine.memory import Memory
from repro.machine.state import ArchState
from repro.machine.tracing import CommittedInstr
from repro.tracecache.cache import TraceCacheConfig
from tests.helpers import make_fill_unit

regs = st.integers(min_value=8, max_value=15)
small_imm = st.integers(min_value=-32, max_value=32)


def execute_hammock(instrs, state, memory):
    """Execute an instruction list honoring conditional-branch skips
    (targets resolved by PC within the list); other control flow is
    treated as straight-line."""
    by_pc = {instr.pc: idx for idx, instr in enumerate(instrs)}
    idx = 0
    while idx < len(instrs):
        instr = instrs[idx]
        effect = evaluate(instr, state.read_reg)
        value = effect.value
        if effect.mem is not None:
            if effect.mem.is_store:
                memory.store(effect.mem.addr, effect.mem.store_value,
                             effect.mem.size)
            else:
                value = memory.load(effect.mem.addr, effect.mem.size,
                                    effect.mem.signed)
        if effect.dest is not None:
            state.write_reg(effect.dest, value)
        if (instr.is_cond_branch() and effect.taken
                and effect.target in by_pc
                and by_pc[effect.target] > idx):
            idx = by_pc[effect.target]
        else:
            idx += 1


@st.composite
def hammock_programs(draw):
    """Straight-line code with single-instruction hammocks on
    compare-with-zero branches."""
    instrs = []
    pc = 0x1000

    def emit(instr):
        nonlocal pc
        instr.pc = pc
        instrs.append(instr)
        pc += 4

    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        # some filler ALU work
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            emit(Instruction(draw(st.sampled_from(
                [Op.ADD, Op.XOR, Op.OR])), rd=draw(regs),
                rs=draw(regs), rt=draw(regs)))
        # a hammock: branch over one ALU instruction
        op = draw(st.sampled_from([Op.BEQ, Op.BNE]))
        emit(Instruction(op, rs=draw(regs), rt=0, imm=8))
        emit(Instruction(Op.ADDI, rd=draw(regs), rs=draw(regs),
                         imm=draw(small_imm)))
    emit(Instruction(Op.ADDI, rd=8, rs=8, imm=1))   # a tail instruction
    seeds = draw(st.lists(st.integers(min_value=-2, max_value=2),
                          min_size=8, max_size=8))
    return instrs, seeds


def committed_fallthrough(instrs):
    """Committed records for the all-fall-through execution (the path
    the fill unit would see when every hammock branch is not taken)."""
    return [CommittedInstr(instr.pc, instr, instr.pc + 4)
            for instr in instrs]


def seed_state(seeds):
    state = ArchState()
    for reg, value in zip(range(8, 16), seeds):
        state.write_reg(reg, value)
    return state


@given(hammock_programs())
@settings(max_examples=200, deadline=None)
def test_predicated_segments_correct_on_both_outcomes(program):
    instrs, seeds = program
    unit = make_fill_unit(BiasTable(64),
                          OptimizationConfig.only("predication"),
                          TraceCacheConfig(num_sets=16, assoc=2))
    collector = FillCollector(BiasTable(64))
    segments = []
    for record in committed_fallthrough(instrs):
        for candidate in collector.add(record):
            segments.append(unit.build_segment(candidate))
    for tail in collector.flush():
        segments.append(unit.build_segment(tail))

    # The random seeds (-2..2, rich in zeros) drive the branch
    # conditions both ways across examples — including ways the
    # builder's fall-through path never took.
    ref_state = seed_state(seeds)
    opt_state = seed_state(seeds)
    ref_mem, opt_mem = Memory(), Memory()
    execute_hammock(instrs, ref_state, ref_mem)
    for segment in segments:
        segment.validate()
    transformed = [instr for segment in segments
                   for instr in segment.instrs]
    execute_hammock(transformed, opt_state, opt_mem)
    assert opt_state.regs == ref_state.regs


@given(hammock_programs())
@settings(max_examples=50, deadline=None)
def test_predication_drops_converted_branches_from_branch_lists(program):
    instrs, _ = program
    unit = make_fill_unit(BiasTable(64),
                          OptimizationConfig.only("predication"),
                          TraceCacheConfig(num_sets=16, assoc=2))
    collector = FillCollector(BiasTable(64))
    for record in committed_fallthrough(instrs):
        for candidate in collector.add(record):
            segment = unit.build_segment(candidate)
            guarded = sum(1 for i in segment.instrs if i.guard is not None)
            squashed = sum(1 for i in segment.instrs
                           if i.op is Op.NOP)
            assert guarded == squashed
            # every surviving branch record points at a real branch
            for info in segment.branches:
                assert segment.instrs[info.index].is_cond_branch()
