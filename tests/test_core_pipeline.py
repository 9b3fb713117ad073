"""Pipeline timing model tests: end-to-end behaviour on small programs."""

import pytest

from repro.core.config import SimConfig
from repro.core.debug import TimingTrace
from repro.core.engine import Engine
from repro.core.stages.base import PipelineStage
from repro.errors import ConfigError, ReproError
from repro.fillunit.opts.base import OptimizationConfig
from repro.telemetry import Telemetry
from tests.helpers import run_asm

LOOP = """
main:
    li   $t9, 200
loop:
    sll  $t1, $t0, 2
    andi $t1, $t1, 252
    lwx  $t2, $t1, $gp
    add  $t3, $t3, $t2
    addi $t0, $t0, 1
    blt  $t0, $t9, loop
    halt
"""


def simulate(source, config=None, opts=None):
    config = config or SimConfig.tiny(opts)
    _, trace = run_asm(source)
    return Engine(config).run(trace, "test", "run"), trace


def test_cycles_and_instructions_positive():
    result, trace = simulate(LOOP)
    assert result.instructions == len(trace)
    assert 0 < result.cycles
    assert 0 < result.ipc <= 16


def test_ipc_bounded_by_machine_width():
    result, _ = simulate("main:\n" + "    addi $t0, $t1, 1\n" * 200 + "    halt\n")
    assert result.ipc <= 16


def test_deterministic():
    a, _ = simulate(LOOP)
    b, _ = simulate(LOOP)
    assert a.cycles == b.cycles
    assert a.mispredicts == b.mispredicts


def test_engine_runs_once():
    """The components keep a run's state (rename and retire clocks,
    caches, predictor, trace cache, counters), so a second run on the
    same engine would return wrong numbers; it raises instead."""
    _, trace = run_asm(LOOP)
    config = SimConfig.tiny(OptimizationConfig.all())
    engine = Engine(config)
    first = engine.run(trace, "test", "run")
    with pytest.raises(ReproError, match="runs once"):
        engine.run(trace, "test", "run")
    assert Engine(config).run(trace, "test", "run") == first


def test_watching_does_not_change_the_chain():
    """The per-instruction chain is the five pipeline stages whether a
    run is observed or not: observers read the finished fetch group."""
    _, trace = run_asm(LOOP)
    config = SimConfig.tiny(OptimizationConfig.all())
    plain = Engine(config)
    observed = Engine(config, telemetry=Telemetry(spans=True))
    capture = TimingTrace()
    observed.stages.append(capture)
    pipeline = ["rename", "issue", "execute", "retire", "fill"]
    for engine in (plain, observed):
        stages = {stage.name: stage for stage in engine.stages}
        chain = engine.hooks("process")
        assert chain == tuple(stages[name].process for name in pipeline)
        # the fill link is the fill unit's own collection entry point
        assert chain[-1].__self__ is engine.fill_unit
    assert "attribution" in [stage.name for stage in observed.stages]
    result = observed.run(trace, "test", "run")
    assert result.cycles == plain.run(trace, "test", "run").cycles
    assert len(capture) + capture.dropped == result.instructions


def test_stage_overriding_process_is_refused():
    """A stage appended to the list joins as an observer: one that
    overrides ``process`` would be a sixth per-instruction link, so
    ``run`` refuses it by name before any stage begins the run."""
    _, trace = run_asm(LOOP)
    begun = []

    class Snoop(PipelineStage):
        name = "snoop"

        def begin_run(self, state):
            begun.append(self.name)

        def process(self, state, entry):
            pass

    engine = Engine(SimConfig.tiny(OptimizationConfig.all()))
    engine.stages.append(Snoop())
    with pytest.raises(ConfigError, match="snoop"):
        engine.run(trace, "test", "run")
    assert begun == []


def test_serial_chain_bounds_throughput():
    """A pure dependence chain cannot beat one instruction per cycle."""
    chain = "main:\n" + "    addi $t0, $t0, 1\n" * 300 + "    halt\n"
    result, _ = simulate(chain)
    assert result.ipc <= 1.1


def test_independent_work_runs_parallel():
    body = "".join(f"    addi $t{i}, $t{i}, 1\n" for i in range(8)) * 4
    source = ("main:\n    li $s0, 60\nouter:\n" + body
              + "    addi $s1, $s1, 1\n    blt $s1, $s0, outer\n    halt\n")
    serial = ("main:\n    li $s0, 60\nouter:\n"
              + "    addi $t0, $t0, 1\n" * 32
              + "    addi $s1, $s1, 1\n    blt $s1, $s0, outer\n    halt\n")
    parallel_r, _ = simulate(source)
    serial_r, _ = simulate(serial)
    assert parallel_r.ipc > 2.5 * serial_r.ipc


def test_trace_cache_warmup_supplies_instructions():
    result, _ = simulate(LOOP)
    assert result.tc_fetched_instrs > 0
    assert result.tc_fetched_instrs + result.ic_fetched_instrs == \
        result.instructions
    assert result.tc_instr_fraction > 0.5


def test_trace_cache_disabled_config():
    from dataclasses import replace
    config = replace(SimConfig.tiny(), trace_cache_enabled=False)
    result, _ = simulate(LOOP, config=config)
    assert result.tc_fetched_instrs == 0
    assert result.tc_lookups == 0


def test_trace_cache_helps_fetch_bound_code():
    """A wide-ILP loop is fetch-bandwidth bound: the instruction cache
    supplies one line (8 instructions) per cycle while the trace cache
    supplies a full 16-wide segment — the TC's raison d'etre."""
    from dataclasses import replace
    body = "".join(f"    addi $t{i % 8}, $s{i % 4}, {i}\n"
                   for i in range(14))
    source = ("main:\n    li $s7, 300\nloop:\n" + body
              + "    addi $s6, $s6, 1\n    blt $s6, $s7, loop\n    halt\n")
    with_tc, _ = simulate(source)
    without, _ = simulate(
        source, config=replace(SimConfig.tiny(), trace_cache_enabled=False))
    assert with_tc.ipc > 1.2 * without.ipc


def test_branches_counted():
    result, trace = simulate(LOOP)
    expected = sum(1 for r in trace if r.instr.is_cond_branch())
    assert result.cond_branches == expected


def test_biased_loop_trains_predictor():
    result, _ = simulate(LOOP)
    assert result.mispredict_rate < 0.1


def test_alternating_branch_mispredicts_initially():
    source = """
    main:
        li   $t9, 64
    loop:
        andi $t1, $t0, 1
        beq  $t1, $zero, even
        addi $t2, $t2, 1
    even:
        addi $t0, $t0, 1
        blt  $t0, $t9, loop
        halt
    """
    result, _ = simulate(source)
    assert result.mispredicts > 0


def test_mispredicts_cost_cycles():
    predictable = """
    main:
        li   $t9, 200
    loop:
        addi $t0, $t0, 1
        blt  $t0, $t9, loop
        halt
    """
    # an LCG-driven unpredictable branch
    random_branch = """
    main:
        li   $t9, 200
        li   $t5, 12345
    loop:
        mult $t5, $t5, $t6
        addi $t5, $t5, 13
        andi $t1, $t5, 1
        beq  $t1, $zero, skip
        addi $t2, $t2, 1
    skip:
        addi $t0, $t0, 1
        blt  $t0, $t9, loop
        halt
    """
    good, _ = simulate(predictable)
    bad, _ = simulate(random_branch)
    assert bad.mispredict_rate > good.mispredict_rate


def test_moves_eliminated_only_with_optimization():
    source = """
    main:
        li   $t9, 100
    loop:
        move $t1, $t0
        add  $t2, $t1, $t1
        addi $t0, $t0, 1
        blt  $t0, $t9, loop
        halt
    """
    base, _ = simulate(source)
    opt, _ = simulate(source, opts=OptimizationConfig.only("moves"))
    assert base.moves_eliminated == 0
    assert opt.moves_eliminated > 0
    assert opt.ipc >= base.ipc


def test_coverage_counted_only_for_tc_instructions():
    result, _ = simulate(LOOP, opts=OptimizationConfig.all())
    assert result.coverage.any_opt <= result.tc_fetched_instrs


def test_promotion_happens_on_long_loops():
    result, _ = simulate(LOOP)   # tiny config promotes after 8
    assert result.promoted_fetches > 0


def test_serializing_instruction_present():
    source = """
    main:
        li $v0, 1
        li $a0, 7
        syscall
        addi $t0, $t0, 1
        halt
    """
    result, _ = simulate(source)
    assert result.cycles > 0     # syscall path executes without hanging


def test_bypass_stat_populated():
    result, _ = simulate(LOOP)
    assert result.executed_with_sources > 0
    assert 0 <= result.bypass_delayed <= result.executed_with_sources


def test_store_load_program_timing_sane():
    source = """
    main:
        li   $t9, 50
    loop:
        sw   $t0, 0($sp)
        lw   $t1, 0($sp)
        addi $t0, $t0, 1
        blt  $t0, $t9, loop
        halt
    """
    result, _ = simulate(source)
    assert result.cycles >= 50          # the st->ld chain serializes
    assert result.forwarded_loads > 0


def test_summary_string():
    result, _ = simulate(LOOP)
    text = result.summary()
    assert "IPC" in text and "test" in text
