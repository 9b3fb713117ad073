"""Per-instruction timeline tests: an observer stage reads every
committed instruction's stage cycles off a small loop."""

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.telemetry import Telemetry
from tests.helpers import GroupTimes, run_asm

LOOP = """
main:
    li   $t9, 30
loop:
    addi $t0, $t0, 1
    blt  $t0, $t9, loop
    halt
"""


def capture(telemetry=None):
    _, trace = run_asm(LOOP)
    model = Engine(SimConfig.tiny(), telemetry=telemetry)
    hook = GroupTimes()
    model.stages.append(hook)
    result = model.run(trace, "t", "r")
    return hook, result, trace


def test_records_cover_all_when_unbounded():
    hook, result, trace = capture()
    assert len(hook.rows) == len(trace) == result.instructions
    assert [seq for seq, *_ in hook.rows] == list(range(len(trace)))


def test_stage_ordering_invariants():
    hook, _, _ = capture()
    for seq, fetch, rename, complete, retire, _move in hook.rows:
        assert fetch < rename <= complete < retire, seq
        assert retire - fetch >= 3, seq


def test_sink_and_hook_agree():
    """The capture is the same with and without a telemetry session
    (whose event and span stages run next to it), and neither observer
    changes the run's cycles."""
    bare, bare_result, trace = capture()
    observed, observed_result, _ = capture(
        telemetry=Telemetry(spans=True))
    assert observed.rows == bare.rows
    assert len(bare.rows) == bare_result.instructions
    plain = Engine(SimConfig.tiny()).run(trace, "t", "r")
    assert bare_result.cycles == observed_result.cycles == plain.cycles
