"""The execution service: fingerprint -> memo -> cache -> run.

:class:`ExecutionService` is the single entry point the harness,
tools and benchmarks use to obtain simulation results. Each
:class:`~repro.exec.grid.JobSpec` resolves through four tiers:

1. the in-process memo (results this service already produced);
2. the on-disk content-addressed cache (when ``cache_dir`` is set) —
   a hit replays the archived result, telemetry snapshot included,
   without simulating;
3. the multiprocess worker pool (``jobs > 1``), which simulates all
   outstanding misses concurrently;
4. inline simulation in this process (``jobs == 1``), reusing one
   committed trace per benchmark.

The service tallies how each job resolved in ``stats`` and sums the
host seconds of its simulated jobs, by layer, in ``host_s``; each
simulated job's own split goes in its cache envelope's provenance.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
import time
from typing import Any, Dict, List, Optional

from repro.core.results import SimResult
from repro.errors import ConfigError
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import code_version, job_fingerprint
from repro.exec.grid import JobSpec
from repro.exec.pool import WorkerPool, run_job, simulate


class ExecutionService:
    """Content-addressed, optionally parallel simulation runs."""

    def __init__(self, scale: float = 1.0, jobs: int = 1,
                 cache_dir: Optional[str] = None) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be at least 1, not {jobs}")
        self.scale = scale
        self.jobs = jobs
        self.cache = (ResultCache(cache_dir)
                      if cache_dir is not None else None)
        self._memo: Dict[str, SimResult] = {}
        self._traces: Dict[str, Any] = {}
        #: resolution tally: memo / disk / simulated job counts, and
        #: the worker resubmissions the pool needed.
        self.stats: Dict[str, int] = {
            "memo": 0, "disk": 0, "simulated": 0, "retried": 0}
        #: host seconds summed over simulated jobs: the trace lookup or
        #: build, the engine run and the cache write. Pool jobs overlap,
        #: so under ``jobs > 1`` a sum can exceed the elapsed time.
        self.host_s: Dict[str, float] = {
            "trace": 0.0, "engine": 0.0, "cache_write": 0.0}

    # -- identity ------------------------------------------------------

    def fingerprint(self, job: JobSpec) -> str:
        """The content address of *job* at this service's scale."""
        return job_fingerprint(job.config, job.benchmark, self.scale)

    # -- traces (inline execution path) --------------------------------

    def trace(self, benchmark: str) -> Any:
        """The committed trace for *benchmark* (memoized)."""
        if benchmark not in self._traces:
            from repro import workloads
            from repro.machine.executor import Executor
            program = workloads.build(benchmark, self.scale)
            self._traces[benchmark] = Executor(program).run()
        return self._traces[benchmark]

    # -- resolution tiers ----------------------------------------------

    def _lookup(self, fp: str) -> bool:
        """Memo and disk tiers: whether *fp*'s result is in the memo,
        where a disk hit is put."""
        if fp in self._memo:
            self.stats["memo"] += 1
            return True
        result = self.cache.get(fp) if self.cache is not None else None
        if result is None:
            return False
        self.stats["disk"] += 1
        self._memo[fp] = result
        return True

    def _store(self, job: JobSpec, fp: str, result: SimResult,
               host_s: Dict[str, float]) -> None:
        self._memo[fp] = result
        self.stats["simulated"] += 1
        for layer, seconds in host_s.items():
            self.host_s[layer] += seconds
        if self.cache is not None:
            start = time.perf_counter()
            self.cache.put(fp, result, provenance={
                "benchmark": job.benchmark, "label": job.label,
                "scale": self.scale, "code": code_version(),
                "host_s": host_s})
            self.host_s["cache_write"] += time.perf_counter() - start

    # -- public API ----------------------------------------------------

    def run(self, job: JobSpec) -> SimResult:
        """One job, through every tier."""
        return self.run_many([job])[0]

    def run_many(self, jobs: List[JobSpec]) -> List[SimResult]:
        """All *jobs*, results in submission order. Misses run through
        the worker pool when ``jobs > 1``, inline otherwise; duplicate
        specs within the batch simulate once. Each result carries its
        own job's label (labels are presentation, not identity)."""
        fps = [self.fingerprint(job) for job in jobs]
        misses: Dict[str, JobSpec] = {}
        for job, fp in zip(jobs, fps):
            if fp not in misses and not self._lookup(fp):
                misses[fp] = job
        pending = list(misses.values())
        if pending and self.jobs > 1:
            pool = WorkerPool(self.jobs)
            outcomes = pool.run(partial(run_job, scale=self.scale), pending)
            self.stats["retried"] += pool.retry_count
        else:
            outcomes = [simulate(job, self.trace) for job in pending]
        for (fp, job), (result, host_s) in zip(misses.items(), outcomes):
            self._store(job, fp, result, host_s)
        out: List[SimResult] = []
        for job, fp in zip(jobs, fps):
            result = self._memo[fp]
            if result.config_label != job.label:
                result = replace(result, config_label=job.label)
            out.append(result)
        return out

    # -- bookkeeping ---------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of resolved jobs served without simulating."""
        hits = self.stats["memo"] + self.stats["disk"]
        served = hits + self.stats["simulated"]
        return hits / served if served else 0.0


__all__ = ["ExecutionService"]
