"""Timing-trace debug facility tests."""

from repro.core.config import SimConfig
from repro.core.debug import TimingTrace
from repro.core.engine import Engine
from tests.helpers import run_asm

LOOP = """
main:
    li   $t9, 30
loop:
    addi $t0, $t0, 1
    blt  $t0, $t9, loop
    halt
"""


def capture(limit=50, start_seq=0, telemetry=None):
    _, trace = run_asm(LOOP)
    model = Engine(SimConfig.tiny(), telemetry=telemetry)
    hook = TimingTrace(limit=limit, start_seq=start_seq)
    model.stages.append(hook)
    result = model.run(trace, "t", "r")
    return hook, result, trace


def test_capture_limited():
    hook, _, _ = capture(limit=10)
    assert len(hook) == 10


def test_records_cover_all_when_unbounded():
    hook, result, trace = capture(limit=10_000)
    assert len(hook) == len(trace) == result.instructions


def test_stage_ordering_invariants():
    hook, _, _ = capture(limit=200)
    for r in hook.records:
        assert r.fetch < r.rename <= r.complete < r.retire
        assert r.latency >= 3


def test_retire_in_order():
    hook, _, _ = capture(limit=200)
    retires = [r.retire for r in hook.records]
    assert retires == sorted(retires)


def test_start_seq_offset():
    hook, _, _ = capture(limit=5, start_seq=20)
    assert hook.records[0].seq == 20


def test_find_by_pc():
    hook, _, trace = capture(limit=10_000)
    loop_pc = trace[1].pc
    found = hook.find(loop_pc)
    assert len(found) > 5
    assert all(r.pc == loop_pc for r in found)


def test_render():
    hook, _, _ = capture(limit=5)
    text = hook.render()
    assert "seq" in text and "addi" in text
    # header + 5 records + the dropped-records summary line
    assert len(text.splitlines()) == 7
    assert f"({hook.dropped} records past the 5-record limit" in text


def test_dropped_counts_overflow():
    hook, result, _ = capture(limit=10)
    assert hook.dropped == result.instructions - 10
    # nothing dropped -> no summary line
    full, _, _ = capture(limit=10_000)
    assert full.dropped == 0
    assert "dropped" not in full.render()


def test_sink_and_hook_agree():
    """The capture is the same with and without a telemetry session
    (whose attribution stage runs next to it), and neither observer
    changes the run's cycles."""
    from repro.telemetry import Telemetry

    bare, bare_result, trace = capture(limit=10_000)
    observed, observed_result, _ = capture(
        limit=10_000, telemetry=Telemetry(spans=True))
    assert observed.records == bare.records
    assert len(bare) == bare_result.instructions
    plain = Engine(SimConfig.tiny()).run(trace, "t", "r")
    assert bare_result.cycles == observed_result.cycles == plain.cycles


def test_default_hook_is_none():
    """No observer stage runs unless asked for: a bare engine has the
    six pipeline stages; a session adds the attribution stage and the
    segment-event stage, and the span stage only when it captures
    spans."""
    from repro.telemetry import Telemetry

    pipeline = ["fetch", "rename", "issue", "execute", "retire", "fill"]
    bare = Engine(SimConfig.tiny())
    assert [stage.name for stage in bare.stages] == pipeline
    observed = Engine(SimConfig.tiny(), telemetry=Telemetry())
    assert [stage.name for stage in observed.stages] == \
        pipeline + ["attribution", "events"]
    quiet = Engine(SimConfig.tiny(),
                          telemetry=Telemetry(attribution=False))
    assert [stage.name for stage in quiet.stages] == pipeline + ["events"]
    traced = Engine(SimConfig.tiny(),
                           telemetry=Telemetry(spans=True))
    assert [stage.name for stage in traced.stages] == \
        pipeline + ["attribution", "events", "spans"]
