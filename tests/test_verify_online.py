"""Online verification: the fill unit checking its own rewrites."""

from dataclasses import replace

import pytest

from repro import workloads
from repro.branch.bias import BiasTable
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.results import SimResult
from repro.core.stages import EventStage, FillStage
from repro.errors import ConfigError
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig, \
    OptimizationPass, PassManager
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.machine.executor import Executor
from repro.telemetry import Telemetry
from repro.tracecache.cache import TraceCacheConfig
from repro.verify import SegmentVerifier
from tests.helpers import make_fill_unit, run_asm, run_fresh

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
    unit = make_fill_unit(BiasTable(64, threshold=64), opts,
                          TraceCacheConfig(num_sets=64, assoc=4),
                          verify_fill=verify, verify_each_pass=verify_each)
    if telemetry is not None:
        # Outside an engine, wire the event stage's hook by hand.
        unit.verify_hooks = (EventStage(telemetry.events).segment_verified,)
    return unit


def verify_scopes(unit):
    """The ``fillunit.verify.*`` scopes the fill stage writes for
    *unit*."""
    result = SimResult("kernel", "t", 0, 0)
    FillStage(unit).finish_run(None, result)
    return {scope: count for scope, count in result.telemetry.items()
            if scope.startswith("fillunit.verify.")}


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


# Counts pre-optimization snapshots (``TraceSegment.clone``) in an
# extended-pipeline engine run of compress, with the verifier off and
# then on, and whether the off run imported the verifier.
SNAPSHOTS = """
import json, sys
from dataclasses import replace
from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.tracecache.segment import TraceSegment

clones = [0]
clone = TraceSegment.clone
def counted(segment):
    clones[0] += 1
    return clone(segment)
TraceSegment.clone = counted

trace = Executor(workloads.build("compress", 0.05)).run()
config = SimConfig.paper(OptimizationConfig.extended())
Engine(config).run(trace, "compress", "extended")
report = {"off": clones[0], "imported": "repro.verify" in sys.modules}
Engine(replace(config, verify_fill=True)).run(trace, "compress", "extended")
report["on"] = clones[0] - report["off"]
print(json.dumps(report))
"""


def test_engine_without_verification_takes_no_snapshots():
    """What ``bench_verify_overhead.py``'s ``off`` leg guards, without
    its timing noise: a run with ``verify_fill`` off clones no segment
    and never imports :mod:`repro.verify`."""
    report = run_fresh(SNAPSHOTS)
    assert report["off"] == 0
    assert report["imported"] is False
    assert report["on"] > 0


def test_counters_mirror_verification_outcomes():
    _, trace = run_asm(KERNEL)
    unit = build_unit(OptimizationConfig.all(), telemetry=Telemetry())
    segments = feed(unit, trace)
    assert verify_scopes(unit) == {
        "fillunit.verify.segments_checked": len(segments),
        "fillunit.verify.segments_clean": len(segments)}
    assert not any(scope.startswith("fillunit.verify.")
                   for scope in unit.counts)


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
    # one count per rule, over passes and severities
    assert verify_scopes(unit) == {
        "fillunit.verify.segments_checked": 1,
        "fillunit.verify.segments_clean": 0,
        "fillunit.verify.violations.pass_surface": 1,
        "fillunit.verify.violations.equiv_registers": 5,
        "fillunit.verify.violations.equiv_memory": 1}
    # the report keeps the error violations whole, with their segment
    assert [(pc, v.pass_name) for pc, v in unit.verifier.report.samples] \
        == [(event.data["start_pc"], "broken")
            for event in sink.events[:5]]


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
    assert names == ["predication", "moves", "reassoc", "scaled_adds",
                     "placement"]

    # Force a mis-ordered pipeline: a pass that *claims* to be
    # placement but runs before another pass must be rejected.
    from repro.fillunit.opts.predication import PredicationPass
    monkeypatch.setattr(PredicationPass, "name", "placement")
    with pytest.raises(ConfigError, match="placement must be the final"):
        PassManager(OptimizationConfig(predication=True, moves=True))


def test_every_pass_declares_a_surface():
    manager = PassManager(OptimizationConfig.extended())
    for opt_pass in manager.passes:
        assert opt_pass.surface is not None, opt_pass.name
        assert isinstance(opt_pass.surface, frozenset)


def test_sim_config_plumbs_verify_flags():
    config = SimConfig.tiny(OptimizationConfig.all())
    config.verify_fill = True
    config.verify_each_pass = True
    model = Engine(config)
    assert model.fill_unit.verifier is not None
    assert model.fill_unit.passes.verify_each


def test_sim_config_rejects_each_without_verify():
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


@pytest.mark.parametrize("bench", ["compress", "li"])
def test_whole_pipeline_verifies_workloads(bench):
    """Whole-pipeline mode (``verify_fill`` without
    ``verify_each_pass``) checks as many segments as per-pass mode,
    finds no error, and moves no cycle."""
    trace = Executor(workloads.build(bench, 0.05)).run()
    config = SimConfig.paper(OptimizationConfig.extended())
    cycles = Engine(config).run(trace, bench, "extended").cycles
    reports = {}
    for each in (False, True):
        engine = Engine(replace(config, verify_fill=True,
                                verify_each_pass=each))
        assert engine.run(trace, bench, "extended").cycles == cycles
        reports[each] = engine.fill_unit.verifier.report
    whole, per_pass = reports[False], reports[True]
    assert whole.violations == 0, whole.render()
    assert whole.segments_checked == per_pass.segments_checked > 0


def test_unoptimized_segments_skip_symbolic_evaluation(monkeypatch):
    """With no optimizations every optimized segment equals its
    snapshot, so the verifier checks each one by its lint rules alone
    and evaluates none symbolically."""
    from repro.verify import equivalence

    calls = []
    evaluate = equivalence.evaluate_segment

    def counting(*args, **kw):
        calls.append(1)
        return evaluate(*args, **kw)

    monkeypatch.setattr(equivalence, "evaluate_segment", counting)
    trace = Executor(workloads.build("compress", 0.1)).run()
    engine = Engine(replace(SimConfig.paper(OptimizationConfig.none()),
                            verify_fill=True))
    engine.run(trace, "compress", "none")
    report = engine.fill_unit.verifier.report
    assert report.segments_checked > 0
    assert report.violations == 0, report.render()
    assert calls == []
