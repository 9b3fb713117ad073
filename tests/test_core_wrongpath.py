"""Wrong-path fetch pollution tests."""

from dataclasses import replace

import pytest

from repro.asm import assemble
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.wrongpath import WrongPathFetcher
from repro.errors import ConfigError
from repro.machine.executor import Executor
from repro.machine.tracing import CommittedInstr, CommittedTrace
from tests.helpers import run_asm

HARD_BRANCH = """
main:
    li   $t9, 600
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


def make_fetcher(program):
    hierarchy = MemoryHierarchy(HierarchyConfig(
        l1i_size=512, l1d_size=1024, l2_size=8192))
    return WrongPathFetcher(program, hierarchy), hierarchy


def test_wrong_target_direction():
    prog = assemble(HARD_BRANCH)
    fetcher, _ = make_fetcher(prog)
    branch_pc = prog.symbols["loop"] + 16
    branch = prog.instr_at(branch_pc)
    assert branch.op.value == "beq"
    taken = CommittedInstr(branch_pc, branch, branch_pc + branch.imm,
                           taken=True)
    not_taken = CommittedInstr(branch_pc, branch, branch_pc + 4,
                               taken=False)
    # predicted the opposite of actual in both cases
    assert fetcher.wrong_target(taken) == branch_pc + 4
    assert fetcher.wrong_target(not_taken) == branch_pc + branch.imm


def test_pollution_touches_icache():
    prog = assemble(HARD_BRANCH)
    fetcher, hierarchy = make_fetcher(prog)
    before = hierarchy.l1i.stats.accesses
    fetcher.pollute(prog.text_base, cycles=4)
    assert hierarchy.l1i.stats.accesses > before
    assert fetcher.instructions > 0
    assert fetcher.fetch_cycles <= 4


def test_walk_stops_at_indirect():
    prog = assemble("main:\n    jr $t0\n    addi $t1, $t1, 1\n    halt\n")
    fetcher, _ = make_fetcher(prog)
    fetcher.pollute(prog.text_base, cycles=10)
    assert fetcher.instructions == 1     # only the jr itself
    assert fetcher.fetch_cycles == 1


def test_walk_stops_outside_text():
    prog = assemble("main:\n    halt\n")
    fetcher, _ = make_fetcher(prog)
    fetcher.pollute(prog.text_end + 0x100, cycles=10)
    assert fetcher.fetch_cycles == 0


def test_walk_follows_direct_jumps():
    prog = assemble("""
    main:
        j far
        halt
    far:
        addi $t0, $t0, 1
        halt
    """)
    fetcher, _ = make_fetcher(prog)
    fetcher.pollute(prog.text_base, cycles=3)
    # group 1: the j (follows to far); group 2: far's instructions
    assert fetcher.instructions >= 3


def test_cycle_budget_capped():
    prog = assemble("main:\n" + "    addi $t0, $t0, 1\n" * 100 + "    halt\n")
    fetcher, _ = make_fetcher(prog)
    fetcher.max_cycles = 5
    fetcher.pollute(prog.text_base, cycles=500)
    assert fetcher.fetch_cycles == 5


def test_requires_program_image():
    _, trace = run_asm("main:\n    halt\n")
    bare = CommittedTrace(trace.records, trace.final_state, trace.output)
    config = replace(SimConfig.tiny(), model_wrong_path=True)
    with pytest.raises(ConfigError):
        Engine(config).run(bare, "t", "r")


def test_program_must_be_the_traces_own_image():
    """``program=`` is accepted only as the trace's own image."""
    prog, trace = run_asm("main:\n    halt\n")
    assert trace.program is prog
    Engine(SimConfig.tiny()).run(trace, "t", "r", program=prog)
    with pytest.raises(ConfigError):
        Engine(SimConfig.tiny()).run(trace, "t", "r",
                                     program=assemble("main:\n    halt\n"))


def _run_both(prog):
    """*prog* on the tiny machine without and with wrong-path fetch."""
    trace = Executor(prog).run()
    base = Engine(SimConfig.tiny()).run(trace, "t", "plain")
    polluted = Engine(replace(SimConfig.tiny(),
                              model_wrong_path=True)).run(trace, "t", "wp")
    return base, polluted


def test_end_to_end_pollution_costs_cycles():
    base, polluted = _run_both(assemble(HARD_BRANCH))
    assert polluted.wrong_path_fetches > 0
    assert base.wrong_path_fetches == 0
    # the retire stage writes the count's scope, and only when the run
    # models the wrong path
    assert polluted.telemetry["branch.wrong_path.fetches"] \
        == polluted.wrong_path_fetches
    assert "branch.wrong_path.fetches" not in base.telemetry
    # Pollution perturbs I-cache state; on a tiny loop it may even act
    # as a prefetch, so assert the timing moved only modestly in either
    # direction rather than a strict cost.
    assert abs(polluted.cycles - base.cycles) < 0.1 * base.cycles


def test_committed_results_identical_shape():
    """Pollution changes timing, never the committed stream."""
    base, polluted = _run_both(assemble(HARD_BRANCH))
    assert polluted.instructions == base.instructions
    assert polluted.cond_branches == base.cond_branches
