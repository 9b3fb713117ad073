"""Host-time profiler: accumulation, engine attachment, reporting."""

import json

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.telemetry.hostprof import HOSTPROF_SCHEMA_VERSION, HostProfiler


def test_add_accumulates():
    prof = HostProfiler()
    prof.add("stage.fetch", 0.25)
    prof.add("stage.fetch", 0.75, calls=3)
    prof.add("fillpass.x", 9.0)          # different prefix: excluded
    calls, seconds = prof.totals["stage.fetch"]
    assert calls == 4 and seconds == 1.0
    assert prof.total_seconds("stage.") == 1.0


def test_to_dict_and_render():
    prof = HostProfiler()
    prof.add("stage.a", 0.5, calls=10)
    payload = prof.to_dict()
    assert payload["schema"] == HOSTPROF_SCHEMA_VERSION
    assert payload["scopes"]["stage.a"] == {"calls": 10, "seconds": 0.5}
    json.dumps(payload)                  # JSON-safe
    text = prof.render("title")
    assert "title" in text and "stage.a" in text and "100.0%" in text


def test_render_shares_are_of_the_stage_total():
    """Pass time is inside ``stage.fill``: it is labelled so and left
    out of the denominator."""
    prof = HostProfiler()
    prof.add("stage.fill", 1.0)
    prof.add("stage.issue", 1.0)
    prof.add("fillpass.x", 0.5)
    rows = {line.split()[0]: line for line in
            prof.render().splitlines()[2:]}
    assert rows["stage.fill"].split()[3] == "50.0%"
    assert rows["stage.issue"].split()[3] == "50.0%"
    assert rows["fillpass.x"].endswith("25.0% (in stage.fill)")


def test_attach_profiles_stages_and_passes():
    program = workloads.build("compress", 0.1)
    trace = Executor(program).run()
    config = SimConfig.paper(OptimizationConfig.all())

    plain = Engine(config).run(trace, "compress")

    engine = Engine(config)
    prof = HostProfiler()
    prof.attach(engine)
    profiled = engine.run(trace, "compress")

    # Wrappers only time; the model is bit-for-bit unchanged.
    assert profiled.cycles == plain.cycles
    assert profiled.instructions == plain.instructions
    assert profiled.telemetry == plain.telemetry

    stage_scopes = {s for s in prof.totals if s.startswith("stage.")}
    assert stage_scopes == {"stage.fetch", "stage.rename",
                            "stage.issue", "stage.execute",
                            "stage.retire", "stage.fill"}
    pass_scopes = {s for s in prof.totals if s.startswith("fillpass.")}
    assert pass_scopes == {"fillpass.moves", "fillpass.reassoc",
                           "fillpass.scaled_adds",
                           "fillpass.placement"}
    # Fetch works once per group; every instruction runs the whole
    # per-instruction chain (no predication here, so no phantoms),
    # plus one begin_run and one finish_run call per stage.
    assert prof.totals["stage.fetch"][0] > 2
    chain = [prof.totals[f"stage.{name}"]
             for name in ("rename", "issue", "execute", "retire", "fill")]
    assert all(calls == profiled.instructions + 2 and seconds > 0.0
               for calls, seconds in chain)


def test_fill_scope_counts_every_chain_entry():
    """The fill stage's ``process`` is the fill unit's collection entry
    point, with no call of its own; the profiler's proxy still times
    it as the fill stage: one ``stage.fill`` call per chain entry
    (predicated phantoms included), plus begin_run and finish_run."""
    from repro.core.stages.base import PipelineStage

    class EntryCount(PipelineStage):
        name = "entry-count"
        entries = 0
        collected = 0

        def end_group(self, state):
            self.entries += len(state.group.entries)

        def segment_collected(self, candidate, cycle, deduped):
            self.collected += len(candidate)

    program = workloads.build("compress", 0.2)
    trace = Executor(program).run()
    engine = Engine(SimConfig.tiny(OptimizationConfig.extended()))
    counter = EntryCount()
    engine.stages.append(counter)
    prof = HostProfiler()
    prof.attach(engine)
    result = engine.run(trace, "compress")

    assert counter.entries > result.instructions     # phantoms ran too
    # the fill unit collected every committed record, and no phantom
    leftover = sum(len(c) for c in engine.fill_unit.flush())
    assert counter.collected + leftover == result.instructions
    calls, seconds = prof.totals["stage.fill"]
    assert calls == counter.entries + 2 and seconds > 0.0


def test_attach_profiles_attribution_stage():
    """Cycle attribution is no stage of its own: the retire stage logs
    the gaps and classifies them in ``finish_run``, so the profiler
    times it as part of ``stage.retire``, with or without a session."""
    from repro.telemetry import Telemetry

    program = workloads.build("compress", 0.1)
    trace = Executor(program).run()
    config = SimConfig.paper(OptimizationConfig.all())

    for telemetry in (None, Telemetry()):
        engine = Engine(config, telemetry=telemetry)
        prof = HostProfiler()
        prof.attach(engine)
        result = engine.run(trace, "compress")

        assert sum(result.attribution.values()) == result.cycles
        assert "stage.attribution" not in prof.totals
        calls, seconds = prof.totals["stage.retire"]
        # once per committed instruction, plus begin_run and finish_run
        assert calls == result.instructions + 2 and seconds > 0.0
