"""The traced run: spans around the public entry points, per-layer numbers.

:class:`Tracer` wraps each public entry point a workload reaches
(``workloads.build``, ``Executor.run``, ``Engine(...)``, ``Engine.run``,
``ExecutionService.run`` and the service's fingerprint, trace and disk
cache calls) in a wall-clock span while installed, and attaches a
:class:`HostProfiler` to every engine built meanwhile for the stage and
pass split. Spans stay in memory in a ``SpanRecorder`` and are written
once, at the end, as a Chrome trace that opens in Perfetto. Nothing
under ``src/`` changes; uninstalling restores every wrapped attribute.
"""

import functools
import time
from typing import Any, Callable, Dict, List, Optional

from repro import workloads
from repro.core.engine import Engine
from repro.exec.cache import ResultCache
from repro.exec.service import ExecutionService
from repro.machine.executor import Executor
from repro.telemetry import Telemetry
from repro.telemetry.exporters.chrometrace import write_chrome_trace
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.spans import WALL, SpanRecorder

STAGES = ("fetch", "rename", "issue", "execute", "retire", "fill")
PASSES = ("moves", "reassoc", "scaled_adds", "placement")
#: per-layer metrics that are host times (scaled like op walls)
TIME_SUFFIXES = ("_ms", "_us_per_instr", "_us_per_call")
#: spans below ExecutionService.run whose share of op time is reported
EXEC_PARTS = ("fingerprint", "cache_put", "cache_get", "trace")


class Tracer:
    """Spans, a host profiler and the engines of one traced phase."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.profiler = HostProfiler()
        #: ``(op id, engine, result)`` of every traced ``Engine.run``
        self.runs: List[tuple] = []
        self.executed_instrs = 0
        self.op: Optional[int] = None
        self._ops = 0
        self._stack: List[int] = []
        self._next_id = 0
        self._saved: List[tuple] = []

    # -- spans ----------------------------------------------------------

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self.recorder.now_wall()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.recorder.now_wall()
            self._stack.pop()
            self.recorder.span("bench", name, start, end - start,
                               timebase=WALL, id=sid, parent=parent,
                               op=self.op)

    def run_op(self, fn: Callable, key: str):
        """One timed op under its own root span and op id."""
        self.op = self._ops
        self._ops += 1
        try:
            return self.span("op", fn, key)
        finally:
            self.op = None

    # -- install / uninstall --------------------------------------------

    def _wrap(self, owner: Any, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            out = tracer.span(name, original, *args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        self._wrap(workloads, "build", "asm.build")
        self._wrap(Executor, "run", "machine.exec", self._after_exec)
        self._wrap(Engine, "__init__", "core.ctor", self._after_ctor)
        self._wrap(Engine, "run", "core.run", self._after_run)
        self._wrap(ExecutionService, "run", "exec.run")
        self._wrap(ExecutionService, "fingerprint", "exec.fingerprint")
        self._wrap(ExecutionService, "trace", "exec.trace")
        self._wrap(ResultCache, "get", "exec.cache_get")
        self._wrap(ResultCache, "put", "exec.cache_put")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _after_exec(self, args: tuple, trace: Any) -> None:
        self.executed_instrs += len(trace.records)

    def _after_ctor(self, args: tuple, _none: Any) -> None:
        self.profiler.attach(args[0])

    def _after_run(self, args: tuple, result: Any) -> None:
        self.runs.append((self.op, args[0], result))

    # -- output ---------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """``{span id: self µs}`` — duration minus the direct children's;
        also stored as each record's ``self_us`` argument."""
        child_total: Dict[int, float] = {}
        for record in self.recorder.records:
            parent = record["args"]["parent"]
            if parent is not None:
                child_total[parent] = (child_total.get(parent, 0.0)
                                       + record["dur"])
        out = {}
        for record in self.recorder.records:
            sid = record["args"]["id"]
            out[sid] = record["dur"] - child_total.get(sid, 0.0)
            record["args"]["self_us"] = out[sid]
        return out

    def write(self, path, metadata: Dict[str, Any]) -> int:
        self.self_times()
        return write_chrome_trace(path, self.recorder, metadata=metadata)


def observer_probe(trace: Any, config: Any, benchmark: str,
                   program: Any, pairs: int = 3) -> Dict[str, float]:
    """Wall of an observed ``Engine.run`` over a plain one on the same
    trace (median of alternating pairs), and what the observer saw."""
    ratios = []
    instrs = events = spans = 0
    for _ in range(pairs):
        start = time.perf_counter()
        Engine(config).run(trace, benchmark=benchmark, program=program)
        plain = time.perf_counter() - start
        start = time.perf_counter()
        telemetry = Telemetry(spans=True)
        sink = telemetry.attach_memory()
        result = Engine(config, telemetry=telemetry).run(
            trace, benchmark=benchmark, program=program)
        ratios.append((time.perf_counter() - start) / plain)
        instrs += result.instructions
        events += len(sink.events)
        spans += len(telemetry.spans)
    ratios.sort()
    return {"telemetry.observed_over_plain": ratios[len(ratios) // 2],
            "telemetry.events_per_kinstr": 1000.0 * events / instrs,
            "telemetry.spans_per_kinstr": 1000.0 * spans / instrs}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, plain_kips: float, traced_kips: float,
                  probe: Dict[str, float],
                  speed: float) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced phase;
    times are multiplied by *speed*, the host-speed scale of the run."""
    records = tracer.recorder.records
    selfs = tracer.self_times()

    def spans(name: str, in_ops: bool = False) -> List[dict]:
        return [r for r in records if r["name"] == name
                and (not in_ops or r["args"]["op"] is not None)]

    def total(name: str, in_ops: bool = False) -> float:
        return sum(r["dur"] for r in spans(name, in_ops))

    def mean_ms(name: str) -> float:
        found = spans(name)
        return _ratio(sum(r["dur"] for r in found), len(found)) / 1000.0

    op_us = total("op")
    runs = [(engine, result) for op, engine, result in tracer.runs
            if op is not None]
    instrs = sum(result.instructions for _, result in runs)
    scopes = tracer.profiler.totals

    def scope_us(scope: str) -> float:
        return scopes.get(scope, [0, 0.0])[1] * 1e6

    def tally(attr: str) -> int:
        return sum(getattr(result, attr) for _, result in runs)

    def replay(kind: str) -> int:
        return sum(result.telemetry.get(f"engine.replay.{kind}", 0)
                   for _, result in runs)

    out: Dict[str, float] = {
        "asm.build_ms": mean_ms("asm.build"),
        "machine.exec_us_per_instr": _ratio(total("machine.exec"),
                                            tracer.executed_instrs),
        "machine.exec_share": _ratio(total("machine.exec", True), op_us),
        "core.ctor_ms": mean_ms("core.ctor"),
        "core.engine_us_per_instr": _ratio(total("core.run", True), instrs),
    }
    pass_us = sum(scope_us(f"fillpass.{name}") for name in PASSES)
    stage_us = 0.0
    for stage in STAGES:
        us = scope_us(f"stage.{stage}")
        stage_us += us
        if stage == "fill":
            us -= pass_us
        out[f"core.stage.{stage}.self_us_per_instr"] = _ratio(us, instrs)
    out["core.loop.self_us_per_instr"] = _ratio(
        total("core.run", True) - stage_us, instrs)
    visits = replay("hit") + replay("miss") + replay("bypass")
    out["core.replay.hit_rate"] = _ratio(replay("hit"), visits)
    out["core.replay.bypass_rate"] = _ratio(replay("bypass"), visits)
    for name in PASSES:
        calls, seconds = scopes.get(f"fillpass.{name}", [0, 0.0])
        out[f"fillunit.pass.{name}.us_per_call"] = _ratio(seconds * 1e6,
                                                          calls)
    built, deduped = tally("segments_built"), tally("segments_deduped")
    out["fillunit.built_per_kinstr"] = _ratio(1000.0 * built, instrs)
    out["fillunit.dedup_frac"] = _ratio(deduped, built + deduped)
    tc = [engine.trace_cache.stats for engine, _ in runs]
    l1d = [engine.hierarchy.l1d.stats for engine, _ in runs]
    evictions = sum(s.evictions for s in tc)
    out["tracecache.hit_rate"] = _ratio(tally("tc_hits"),
                                        tally("tc_lookups"))
    out["tracecache.evictions"] = _ratio(evictions, len(runs))
    out["tracecache.dead_eviction_frac"] = _ratio(
        sum(s.dead_evictions for s in tc), evictions)
    out["cache.l1d.evictions"] = _ratio(sum(s.evictions for s in l1d),
                                        len(runs))
    out["cache.l1d.miss_rate"] = _ratio(sum(s.misses for s in l1d),
                                        sum(s.accesses for s in l1d))
    out["branch.mispredict_rate"] = _ratio(tally("mispredicts"),
                                           tally("cond_branches"))
    out.update(probe)
    for part in EXEC_PARTS:
        out[f"exec.{part}_share"] = _ratio(total(f"exec.{part}", True),
                                           op_us)
    out["exec.self_share"] = _ratio(
        sum(selfs[r["args"]["id"]] for r in spans("exec.run", True)),
        op_us)
    out["trace.overhead"] = _ratio(plain_kips, traced_kips)
    for name in out:
        if name.endswith(TIME_SUFFIXES):
            out[name] *= speed
    return out
