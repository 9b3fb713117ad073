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

Every resolution emits a progress event (``exec.job.cached`` /
``exec.job.started`` / ``exec.job.finished``) on the attached
telemetry session's event stream, so long grid runs are observable
with the same machinery as the simulated machine itself.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.core.export import result_from_dict
from repro.core.results import SimResult
from repro.errors import ConfigError
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import code_version, job_fingerprint
from repro.exec.grid import JobSpec
from repro.exec.pool import WorkerPool, run_job_payload
from repro.telemetry.events import (
    EXEC_JOB_CACHED,
    EXEC_JOB_FINISHED,
    EXEC_JOB_STARTED,
    NULL_EVENT_STREAM,
)
from repro.telemetry.spans import NULL_SPANS, WALL


class ExecutionService:
    """Content-addressed, optionally parallel simulation runs."""

    def __init__(self, scale: float = 1.0, jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 telemetry: Optional[Any] = None,
                 retries: int = 2) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be at least 1, not {jobs}")
        self.scale = scale
        self.jobs = jobs
        self.cache = (ResultCache(cache_dir)
                      if cache_dir is not None else None)
        self.telemetry = telemetry
        self.events = (telemetry.events if telemetry is not None
                       else NULL_EVENT_STREAM)
        #: wall-clock job spans on the "exec" track; NULL_SPANS when
        #: the session does not trace (the exec layer is not on the
        #: simulated hot path, so the null-object calls are fine here).
        self.spans = (getattr(telemetry, "spans", NULL_SPANS)
                      if telemetry is not None else NULL_SPANS)
        self.retries = retries
        self._memo: Dict[str, SimResult] = {}
        self._traces: Dict[str, Any] = {}
        #: resolution tally: memo / disk / simulated job counts.
        self.stats: Dict[str, int] = {
            "memo": 0, "disk": 0, "simulated": 0}

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
        spans = self.spans
        probe = spans.begin("exec", "exec.cache_probe",
                            spans.now_wall(), timebase=WALL,
                            benchmark=job.benchmark, label=job.label)
        source = None
        result = self._memo.get(fp)
        if result is not None:
            source = "memo"
        elif self.cache is not None:
            result = self.cache.get(fp)
            if result is not None:
                source = "disk"
        probe.end(spans.now_wall(), source=source or "miss")
        if result is None:
            return None
        self.stats[source] += 1
        if result.config_label != job.label:
            result = replace(result, config_label=job.label)
        self._memo[fp] = result
        self.events.emit(EXEC_JOB_CACHED, 0, benchmark=job.benchmark,
                         label=job.label, fingerprint=fp[:12],
                         source=source)
        return result

    def _store(self, job: JobSpec, fp: str, result: SimResult) -> None:
        self._memo[fp] = result
        self.stats["simulated"] += 1
        if self.cache is not None:
            self.cache.put(fp, result, provenance={
                "benchmark": job.benchmark, "label": job.label,
                "scale": self.scale, "code": code_version()})

    def _payload(self, job: JobSpec, fp: str) -> Dict[str, Any]:
        return {"benchmark": job.benchmark, "scale": self.scale,
                "config": job.config.to_dict(), "label": job.label,
                "fingerprint": fp}

    def _simulate_inline(self, job: JobSpec, fp: str) -> SimResult:
        from repro.core.engine import Engine
        spans = self.spans
        self.events.emit(EXEC_JOB_STARTED, 0, benchmark=job.benchmark,
                         label=job.label, fingerprint=fp[:12])
        handle = spans.begin("exec", "exec.simulate", spans.now_wall(),
                             timebase=WALL, benchmark=job.benchmark,
                             label=job.label, source="inline")
        result = Engine(job.config).run(
            self.trace(job.benchmark), benchmark=job.benchmark,
            label=job.label)
        handle.end(spans.now_wall(), cycles=result.cycles)
        self._store(job, fp, result)
        self.events.emit(EXEC_JOB_FINISHED, 0, benchmark=job.benchmark,
                         label=job.label, fingerprint=fp[:12],
                         cycles=result.cycles)
        return result

    # -- public API ----------------------------------------------------

    def run(self, job: JobSpec) -> SimResult:
        """One job, through every tier."""
        return self.run_many([job])[0]

    def run_many(self, jobs: List[JobSpec]) -> List[SimResult]:
        """All *jobs*, results in submission order. Misses run through
        the worker pool when ``jobs > 1``, inline otherwise; duplicate
        specs within the batch simulate once."""
        spans = self.spans
        fps = [self.fingerprint(job) for job in jobs]
        results: Dict[int, SimResult] = {}
        misses: List[int] = []
        dispatched: Dict[str, int] = {}
        # One exec.job span per submission. For batched misses the end
        # timestamp is when the batch's results are folded back in —
        # an approximation (pool jobs overlap), documented in
        # docs/observability.md.
        handles = [spans.begin("exec", "exec.job", spans.now_wall(),
                               timebase=WALL, benchmark=job.benchmark,
                               label=job.label)
                   for job in jobs]
        for idx, (job, fp) in enumerate(zip(jobs, fps)):
            hit = self._lookup(job, fp)
            if hit is not None:
                results[idx] = hit
                handles[idx].end(spans.now_wall(), source="cache",
                                 cycles=hit.cycles)
            elif fp in dispatched:
                continue                      # duplicate; fill in later
            else:
                dispatched[fp] = idx
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
                memo = self._memo[fp]
                result = (memo if memo.config_label == job.label
                          else replace(memo, config_label=job.label))
                source = ("simulated" if dispatched.get(fp) == idx
                          else "duplicate")
                handles[idx].end(spans.now_wall(), source=source,
                                 cycles=result.cycles)
            out.append(result)
        return out

    def _run_pool(self, jobs: List[JobSpec], fps: List[str]) -> None:
        pool = WorkerPool(self.jobs, retries=self.retries,
                          events=self.events, spans=self.spans)
        payloads = []
        for job, fp in zip(jobs, fps):
            payloads.append(self._payload(job, fp))
            self.events.emit(EXEC_JOB_STARTED, 0,
                             benchmark=job.benchmark, label=job.label,
                             fingerprint=fp[:12])
        raw = pool.run(payloads)
        by_fp = {entry["fingerprint"]: entry["result"] for entry in raw}
        for job, fp in zip(jobs, fps):
            result = result_from_dict(by_fp[fp])
            self._store(job, fp, result)
            self.events.emit(EXEC_JOB_FINISHED, 0,
                             benchmark=job.benchmark, label=job.label,
                             fingerprint=fp[:12], cycles=result.cycles)

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
        served = sum(self.stats.values())
        if not served:
            return 0.0
        return (self.stats["memo"] + self.stats["disk"]) / served

    def clear(self) -> None:
        """Drop in-process memo and traces (the disk cache stays)."""
        self._memo.clear()
        self._traces.clear()


__all__ = ["ExecutionService"]
