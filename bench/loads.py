"""The four workloads: what one op is, what it reads, how it is checked.

Every op is a call into a public entry point of ``repro``, timed from
outside by ``run.py``. An op returns an :class:`Outcome`; ``check``
compares it with the pinned golden cycles in ``goldens.json`` and
with the workload's own invariants. The seed only orders the ops, so
the goldens hold for every seed.

A run makes ``floor(seconds / pass_s)`` passes, so its op multiset
depends on ``--seconds`` alone. ``pass_s`` was set on the calibration
host (a 2-core x86-64 VM shared with other tenants) so that a 20-second
run spends 13-22 seconds in timed ops there when the host is calm.
"""

from dataclasses import dataclass, replace
import random
import shutil
import tempfile
from typing import Any, Dict, List

from repro import workloads
from repro.cache.policy import POLICY_NAMES
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.exec.grid import paper_grid
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.telemetry import Telemetry


@dataclass
class Outcome:
    """What one op produced: its :class:`SimResult` plus whatever the
    workload's checks need (the engine, the telemetry session)."""

    result: Any
    extra: Any = None


class Workload:
    """One closed-loop workload. Subclasses define the op."""

    name = ""
    #: seconds of run length budgeted per pass
    pass_s = 1.0

    def __init__(self, goldens: Dict[str, int], out_dir) -> None:
        self.goldens = goldens
        self.out_dir = out_dir
        self.config = SimConfig.paper(OptimizationConfig.all())

    def prepare(self) -> None:
        """Build the inputs the ops replay (untimed, part of set-up)."""

    def base_ops(self) -> List[str]:
        """One pass: op keys in canonical order (also golden keys)."""
        raise NotImplementedError

    def op(self, key: str) -> Outcome:
        raise NotImplementedError

    def probe_inputs(self):
        """``(trace, config, benchmark, program)`` of the first op, for
        the observed-versus-plain probe of a traced run."""
        raise NotImplementedError

    def begin_pass(self) -> None:
        pass

    def end_pass(self) -> Dict[str, str]:
        """Checks over a finished pass: ``{key: problem}``."""
        return {}

    def finish(self) -> Dict[str, str]:
        """Checks over the whole run: ``{key: problem}``."""
        return {}

    def check(self, key: str, out: Outcome) -> List[str]:
        golden = self.goldens.get(key)
        cycles = out.result.cycles
        if golden is None:
            return [f"no golden for {key}"]
        if cycles != golden:
            return [f"cycles {cycles} != golden {golden}"]
        return []

    def close(self) -> None:
        pass


def passes_for(workload: Workload, seconds: float) -> int:
    return max(1, int(seconds // workload.pass_s))


def op_order(workload: Workload, seed: int, passes: int) -> List[List[str]]:
    """*passes* passes over the base ops, all in one seeded order, so
    each op recurs in the same context (on ``grid``, the first job of
    each benchmark in a pass also builds its trace)."""
    keys = workload.base_ops()
    random.Random(seed).shuffle(keys)
    return [list(keys) for _ in range(passes)]


class Suite(Workload):
    """The ``repro run`` shape: assemble, execute, build the engine and
    replay, for each of the 15 stand-ins, unobserved."""

    name = "suite"
    pass_s = 4.0
    scale = 0.1

    def base_ops(self) -> List[str]:
        return workloads.names()

    def op(self, key: str) -> Outcome:
        program = workloads.build(key, self.scale)
        trace = Executor(program).run()
        return Outcome(Engine(self.config).run(trace, benchmark=key))

    def probe_inputs(self):
        key = self.base_ops()[0]
        trace = Executor(workloads.build(key, self.scale)).run()
        return trace, self.config, key, None


class Grid(Workload):
    """``ExecutionService.run`` over the paper's figure 3-6 grid: six
    configs x 15 stand-ins through a fresh service with a fresh disk
    cache each pass; afterwards a second service must read every
    result back from disk unchanged."""

    name = "grid"
    pass_s = 6.5
    scale = 0.05

    def prepare(self) -> None:
        self.jobs = {f"{job.benchmark}/{job.label}": job
                     for job in paper_grid(workloads.names(),
                                           latencies=(5,))}
        self.service = None
        self.cache_dir = None
        self.cold: Dict[str, Any] = {}

    def base_ops(self) -> List[str]:
        return list(self.jobs)

    def begin_pass(self) -> None:
        self.close()
        self.cache_dir = tempfile.mkdtemp(prefix="grid-", dir=self.out_dir)
        self.service = ExecutionService(scale=self.scale, jobs=1,
                                        cache_dir=self.cache_dir)
        self.cold = {}

    def op(self, key: str) -> Outcome:
        return Outcome(self.service.run(self.jobs[key]))

    def check(self, key: str, out: Outcome) -> List[str]:
        self.cold[key] = out.result
        return super().check(key, out)

    def end_pass(self) -> Dict[str, str]:
        reread = ExecutionService(scale=self.scale, jobs=1,
                                  cache_dir=self.cache_dir)
        problems = {}
        for key, cold in self.cold.items():
            warm = reread.run(self.jobs[key])
            if (warm.cycles, warm.telemetry) != (cold.cycles,
                                                 cold.telemetry):
                problems[key] = "disk re-read differs from cold result"
        if reread.stats["simulated"]:
            for key in self.cold:
                problems.setdefault(key, "disk re-read re-simulated")
        self.close()
        return problems

    def probe_inputs(self):
        job = self.jobs[self.base_ops()[0]]
        service = ExecutionService(scale=self.scale, jobs=1)
        return service.trace(job.benchmark), job.config, job.benchmark, None

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


class Observed(Workload):
    """One ``Engine.run`` of a pre-executed trace under a fresh
    ``Telemetry(spans=True)`` session with a memory sink: events, cycle
    attribution and spans, what ``repro profile``/``repro trace`` pay."""

    name = "observed"
    pass_s = 2.2
    scale = 0.5
    #: three kinds, so the median op is one kind's, not the midpoint
    #: between two; m88ksim is where the timing memo costs most
    benchmarks = ("compress", "li", "m88ksim")

    def prepare(self) -> None:
        self.traces = {name: Executor(workloads.build(name, self.scale)).run()
                       for name in self.benchmarks}

    def base_ops(self) -> List[str]:
        return list(self.benchmarks)

    def op(self, key: str) -> Outcome:
        telemetry = Telemetry(spans=True)
        sink = telemetry.attach_memory()
        engine = Engine(self.config, telemetry=telemetry)
        result = engine.run(self.traces[key], benchmark=key)
        return Outcome(result, (telemetry, sink))

    def check(self, key: str, out: Outcome) -> List[str]:
        problems = super().check(key, out)
        telemetry, sink = out.extra
        result = out.result
        if sum(result.attribution.values()) != result.cycles:
            problems.append("attribution does not sum to cycles")
        if not sink.events or not len(telemetry.spans):
            problems.append("observed run recorded no events or spans")
        return problems

    def probe_inputs(self):
        key = self.benchmarks[0]
        return self.traces[key], self.config, key, None


class TinyEvict(Workload):
    """The paper machine with a 64-line trace cache and 1 KiB L1I/L1D,
    under each replacement policy, with the program passed so TRRIP's
    static hints install: the only workload whose caches evict."""

    name = "tiny-evict"
    pass_s = 5.0
    scale = 0.15
    benchmarks = ("compress", "li", "gcc", "ijpeg")

    def prepare(self) -> None:
        self.programs = {name: workloads.build(name, self.scale)
                         for name in self.benchmarks}
        self.traces = {name: Executor(program).run()
                       for name, program in self.programs.items()}
        base = self.config
        self.configs = {
            policy: replace(
                base,
                trace_cache=replace(base.trace_cache, num_sets=16,
                                    policy=policy),
                hierarchy=replace(base.hierarchy, l1i_size=1024,
                                  l1d_size=1024, policy=policy))
            for policy in POLICY_NAMES}
        self.cycles: Dict[str, int] = {}
        self.l1d_evictions = 0

    def base_ops(self) -> List[str]:
        return [f"{name}/{policy}" for name in self.benchmarks
                for policy in POLICY_NAMES]

    def op(self, key: str) -> Outcome:
        name, policy = key.split("/")
        engine = Engine(self.configs[policy])
        result = engine.run(self.traces[name], benchmark=name,
                            program=self.programs[name])
        return Outcome(result, engine)

    def check(self, key: str, out: Outcome) -> List[str]:
        problems = super().check(key, out)
        engine = out.extra
        self.cycles[key] = out.result.cycles
        self.l1d_evictions += engine.hierarchy.l1d.stats.evictions
        if not engine.trace_cache.stats.evictions:
            problems.append("trace cache did not evict")
        return problems

    def finish(self) -> Dict[str, str]:
        problems = {}
        for name in self.benchmarks:
            keys = [f"{name}/{policy}" for policy in POLICY_NAMES]
            seen = {self.cycles[key] for key in keys if key in self.cycles}
            if len(seen) != len(POLICY_NAMES):
                for key in keys:
                    problems[key] = "replacement policies gave equal cycles"
        if not self.l1d_evictions:
            for key in self.cycles:
                problems.setdefault(key, "L1D never evicted")
        return problems

    def probe_inputs(self):
        name, policy = self.base_ops()[0].split("/")
        return (self.traces[name], self.configs[policy], name,
                self.programs[name])


WORKLOADS = {cls.name: cls for cls in (Suite, Grid, Observed, TinyEvict)}
