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
import time
from typing import Any, Dict, List, Optional, Set

from repro.core.export import result_from_dict
from repro.core.results import SimResult
from repro.errors import ConfigError
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import code_version, job_fingerprint
from repro.exec.grid import JobSpec
from repro.exec.pool import WorkerPool, run_job_payload


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

    def _lookup(self, job: JobSpec, fp: str) -> Optional[SimResult]:
        """Memo and disk tiers; relabels replayed results to the
        job's label (labels are presentation, not identity)."""
        source = "memo"
        result = self._memo.get(fp)
        if result is None and self.cache is not None:
            source = "disk"
            result = self.cache.get(fp)
        if result is None:
            return None
        self.stats[source] += 1
        if result.config_label != job.label:
            result = replace(result, config_label=job.label)
        self._memo[fp] = result
        return result

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

    def _payload(self, job: JobSpec, fp: str) -> Dict[str, Any]:
        return {"benchmark": job.benchmark, "scale": self.scale,
                "config": job.config.to_dict(), "label": job.label,
                "fingerprint": fp}

    def _simulate_inline(self, job: JobSpec, fp: str) -> None:
        from repro.core.engine import Engine
        start = time.perf_counter()
        trace = self.trace(job.benchmark)
        traced = time.perf_counter()
        result = Engine(job.config).run(
            trace, benchmark=job.benchmark, label=job.label)
        self._store(job, fp, result, {
            "trace": traced - start,
            "engine": time.perf_counter() - traced})

    # -- public API ----------------------------------------------------

    def run(self, job: JobSpec) -> SimResult:
        """One job, through every tier."""
        return self.run_many([job])[0]

    def run_many(self, jobs: List[JobSpec]) -> List[SimResult]:
        """All *jobs*, results in submission order. Misses run through
        the worker pool when ``jobs > 1``, inline otherwise; duplicate
        specs within the batch simulate once."""
        fps = [self.fingerprint(job) for job in jobs]
        results: Dict[int, SimResult] = {}
        misses: List[int] = []
        dispatched: Set[str] = set()
        for idx, (job, fp) in enumerate(zip(jobs, fps)):
            hit = self._lookup(job, fp)
            if hit is not None:
                results[idx] = hit
            elif fp not in dispatched:        # a duplicate fills in later
                dispatched.add(fp)
                misses.append(idx)
        if misses and self.jobs > 1:
            self._run_pool([jobs[i] for i in misses],
                           [fps[i] for i in misses])
        elif misses:
            for idx in misses:
                self._simulate_inline(jobs[idx], fps[idx])
        out: List[SimResult] = []
        for idx, (job, fp) in enumerate(zip(jobs, fps)):
            result = results.get(idx)
            if result is None:
                result = self._memo[fp]
                if result.config_label != job.label:
                    result = replace(result, config_label=job.label)
            out.append(result)
        return out

    def _run_pool(self, jobs: List[JobSpec], fps: List[str]) -> None:
        pool = WorkerPool(self.jobs)
        raw = pool.run([self._payload(job, fp)
                        for job, fp in zip(jobs, fps)])
        self.stats["retried"] += pool.retry_count
        by_fp = {entry["fingerprint"]: entry for entry in raw}
        for job, fp in zip(jobs, fps):
            entry = by_fp[fp]
            self._store(job, fp, result_from_dict(entry["result"]),
                        entry["host_s"])

    # -- bookkeeping ---------------------------------------------------

    def run_payload_inline(self, job: JobSpec) -> SimResult:
        """The exact worker path, in-process (tests: serial-vs-pool
        equivalence without spawning)."""
        fp = self.fingerprint(job)
        entry = run_job_payload(self._payload(job, fp))
        return result_from_dict(entry["result"])

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of resolved jobs served without simulating."""
        hits = self.stats["memo"] + self.stats["disk"]
        served = hits + self.stats["simulated"]
        return hits / served if served else 0.0


__all__ = ["ExecutionService"]
