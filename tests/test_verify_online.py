"""Online verification: the fill unit checking its own rewrites."""

import pytest

from repro.branch.bias import BiasTable
from repro.core.stages import EventStage
from repro.errors import ConfigError
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig, \
    OptimizationPass, PassManager
from repro.fillunit.unit import FillUnit, FillUnitConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.telemetry import Telemetry
from repro.tracecache.cache import TraceCache, TraceCacheConfig
from repro.verify import SegmentVerifier
from tests.helpers import run_asm

KERNEL = """
main:
    addi $t0, $zero, 5
    addi $t1, $t0, 0
    addi $t2, $t1, 4
    beq  $zero, $zero, next
next:
    addi $t3, $t2, 4
    sll  $t4, $t3, 2
    add  $t5, $t4, $sp
    sw   $t3, 0($t5)
    halt
"""


def build_unit(opts, verify=True, verify_each=False, telemetry=None):
    registry = telemetry.registry if telemetry is not None else None
    unit = FillUnit(
        FillUnitConfig(latency=1, optimizations=opts, verify=verify,
                       verify_each=verify_each),
        TraceCache(TraceCacheConfig(num_sets=64, assoc=4)),
        BiasTable(64, threshold=64), registry=registry)
    if telemetry is not None:
        # Outside an engine, wire the event stage's hook by hand.
        unit.verify_hooks = (EventStage(telemetry.events).segment_verified,)
    return unit


def feed(unit, trace):
    collector = FillCollector(unit.bias, 16, 3)
    segments = []
    for record in trace:
        for candidate in collector.add(record):
            segments.append(unit.build_segment(candidate))
    return segments


def test_online_verification_accumulates_report():
    _, trace = run_asm(KERNEL)
    unit = build_unit(OptimizationConfig.all())
    feed(unit, trace)
    assert unit.verifier is not None
    assert unit.verifier.report.segments_checked > 0
    assert unit.verifier.report.violations == 0


def test_verification_off_means_no_verifier():
    _, trace = run_asm(KERNEL)
    unit = build_unit(OptimizationConfig.all(), verify=False)
    feed(unit, trace)
    assert unit.verifier is None


def test_counters_mirror_verification_outcomes():
    telemetry = Telemetry()
    _, trace = run_asm(KERNEL)
    unit = build_unit(OptimizationConfig.all(), telemetry=telemetry)
    segments = feed(unit, trace)
    counters = telemetry.registry.flat()
    assert counters["fillunit.verify.segments_checked"] == len(segments)
    assert counters["fillunit.verify.segments_clean"] == len(segments)


def test_violation_event_names_offending_pass():
    """A buggy pass's violations surface as verify.violation events
    naming the pass (per-pass mode)."""

    class BrokenPass(OptimizationPass):
        name = "broken"
        surface = frozenset()

        def apply(self, segment, ctx):
            for instr in segment.instrs:
                if instr.op is Op.ADDI and instr.imm:
                    instr.imm += 4          # corrupt a dataflow value
                    return {"broken": 1}
            return {}

    telemetry = Telemetry()
    sink = telemetry.attach_memory(kinds=("verify.violation",))
    _, trace = run_asm(KERNEL)
    unit = build_unit(OptimizationConfig.only("placement"),
                      verify_each=True, telemetry=telemetry)
    unit.passes.passes.insert(0, BrokenPass())
    feed(unit, trace)
    assert unit.verifier.report.violations > 0
    assert sink.events, "expected verify.violation events"
    event = sink.events[0]
    assert event.data["opt"] == "broken"
    assert event.data["severity"] == "error"
    assert event.data["rule"] in ("equiv-registers", "equiv-memory",
                                  "pass-surface")
    counters = telemetry.registry.flat()
    violation_scopes = [scope for scope in counters
                        if scope.startswith("fillunit.verify.violations.")]
    assert violation_scopes


def test_verify_each_runs_every_pass_in_isolation():
    _, trace = run_asm(KERNEL)
    unit = build_unit(OptimizationConfig.all(), verify_each=True)
    feed(unit, trace)
    assert unit.passes.verify_each
    assert unit.verifier.report.violations == 0


def test_placement_must_be_last(monkeypatch):
    """The constructor enforces what the docstring promises: placement
    runs after every rewriting pass, whatever subset is enabled."""
    manager = PassManager(OptimizationConfig.extended())
    names = [p.name for p in manager.passes]
    assert names[-1] == "placement"
    assert names[:3] == ["predication", "cse", "dead_code"]

    # Force a mis-ordered pipeline: a pass that *claims* to be
    # placement but runs before another pass must be rejected.
    from repro.fillunit.opts.cse import CommonSubexpressionPass
    monkeypatch.setattr(CommonSubexpressionPass, "name", "placement")
    with pytest.raises(ConfigError, match="placement must be the final"):
        PassManager(OptimizationConfig(cse=True, dead_code=True))


def test_every_pass_declares_a_surface():
    manager = PassManager(OptimizationConfig.extended())
    for opt_pass in manager.passes:
        assert opt_pass.surface is not None, opt_pass.name
        assert isinstance(opt_pass.surface, frozenset)


def test_sim_config_plumbs_verify_flags():
    from repro.core.config import SimConfig
    from repro.core.pipeline import PipelineModel

    config = SimConfig.tiny(OptimizationConfig.all())
    config.verify_fill = True
    config.verify_each_pass = True
    model = PipelineModel(config)
    assert model.fill_unit.verifier is not None
    assert model.fill_unit.passes.verify_each


def test_sim_config_rejects_each_without_verify():
    from repro.core.config import SimConfig
    with pytest.raises(ConfigError, match="verify_each_pass"):
        SimConfig(verify_each_pass=True)


def test_per_pass_and_whole_pipeline_agree_on_clean_segments():
    _, trace = run_asm(KERNEL)
    whole = build_unit(OptimizationConfig.extended())
    each = build_unit(OptimizationConfig.extended(), verify_each=True)
    feed(whole, trace)
    feed(each, trace)
    assert whole.verifier.report.violations == 0
    assert each.verifier.report.violations == 0
    assert (whole.verifier.report.segments_checked
            == each.verifier.report.segments_checked)
