"""The one run path (Executor then Engine) and configuration-sensitivity
tests."""

from dataclasses import replace
import gc
import weakref

import pytest

from repro.asm import assemble
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.stages.base import PipelineStage
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.telemetry import Telemetry
from tests.helpers import run_asm

PROGRAM_SRC = """
main:
    li   $t9, 150
loop:
    sll  $t1, $t0, 2
    andi $t1, $t1, 124
    lwx  $t2, $t1, $gp
    add  $t3, $t3, $t2
    addi $t0, $t0, 1
    blt  $t0, $t9, loop
    halt
"""


def test_engine_takes_program_from_trace():
    """The committed trace carries its program, so passing the image
    again changes nothing."""
    program = assemble(PROGRAM_SRC, name="prog")
    trace = Executor(program).run()
    assert trace.program is program
    plain = Engine(SimConfig.tiny()).run(trace, benchmark="prog")
    passed = Engine(SimConfig.tiny()).run(trace, benchmark="prog",
                                          program=program)
    assert plain.cycles == passed.cycles
    assert plain.benchmark == "prog"


@pytest.mark.parametrize("observed", [False, True])
def test_finished_engine_is_not_cyclic_garbage(observed):
    """A finished engine's trace cache, fill unit and segments are
    freed as soon as the engine is, by reference counting: nothing in
    them refers back to itself (the collector's feed and sink) or to
    a stage holding them (the segment-hook chains)."""
    trace = Executor(assemble(PROGRAM_SRC, name="prog")).run()
    telemetry = Telemetry(spans=True) if observed else None
    gc.collect()
    gc.disable()
    try:
        engine = Engine(SimConfig.tiny(OptimizationConfig.extended()),
                        telemetry=telemetry)
        engine.run(trace, benchmark="prog")
        assert engine.trace_cache.stats.fills > 0
        trace_cache = weakref.ref(engine.trace_cache)
        fill_unit = weakref.ref(engine.fill_unit)
        del engine
        assert trace_cache() is None
        assert fill_unit() is None
    finally:
        gc.enable()


class _FailingStage(PipelineStage):
    """Holds the fill unit and hooks its builds, then fails to start."""

    name = "failing"

    def __init__(self, fill_unit):
        self.fill_unit = fill_unit

    def segment_built(self, segment, cycle):
        pass

    def begin_run(self, state):
        raise RuntimeError("begin_run failed")


def test_engine_failing_to_start_is_not_cyclic_garbage():
    """A stage that raises in ``begin_run`` leaves no segment-hook
    chain behind, so the engine is still freed by reference counting."""
    trace = Executor(assemble(PROGRAM_SRC, name="prog")).run()
    gc.collect()
    gc.disable()
    try:
        engine = Engine(SimConfig.tiny(OptimizationConfig.extended()))
        engine.stages.append(_FailingStage(engine.fill_unit))
        try:
            engine.run(trace, benchmark="prog")
        except RuntimeError:
            pass
        else:
            raise AssertionError("begin_run did not raise")
        trace_cache = weakref.ref(engine.trace_cache)
        del engine
        assert trace_cache() is None
    finally:
        gc.enable()


# --- configuration sensitivity -------------------------------------------


def run_with(config, source=PROGRAM_SRC):
    _, trace = run_asm(source)
    return Engine(config).run(trace, "t", "r")


def test_wider_window_never_hurts():
    small = run_with(replace(SimConfig.tiny(), window_size=32))
    large = run_with(replace(SimConfig.tiny(), window_size=512))
    assert large.cycles <= small.cycles


def test_narrow_retire_width_throttles():
    wide = run_with(SimConfig.tiny())
    narrow = run_with(replace(SimConfig.tiny(), retire_width=1))
    assert narrow.cycles >= wide.cycles
    assert narrow.ipc <= 1.0 + 1e-9


def test_zero_bypass_penalty_never_hurts():
    costly = run_with(SimConfig.tiny())
    free = run_with(replace(SimConfig.tiny(), cross_cluster_penalty=0))
    assert free.cycles <= costly.cycles
    assert free.bypass_delayed == 0


def test_block_granular_fill_end_to_end():
    packed = run_with(SimConfig.tiny())
    unpacked = run_with(replace(SimConfig.tiny(), trace_packing=False))
    # both complete correctly; both use the trace cache
    assert unpacked.instructions == packed.instructions
    assert unpacked.tc_fetched_instrs > 0


def test_single_cluster_machine():
    config = replace(SimConfig.tiny(), num_clusters=1, cluster_size=16)
    result = run_with(config)
    assert result.bypass_delayed == 0      # nowhere to cross to
    assert result.ipc > 0


def test_extended_optimizations_run_through_simulator():
    result = run_with(SimConfig.tiny(OptimizationConfig.extended()))
    assert result.ipc > 0
