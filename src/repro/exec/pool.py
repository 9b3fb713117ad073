"""Multiprocess job execution with retry.

A job crosses the process boundary as the object it already is: the
worker entry point (:func:`run_job`) takes a
:class:`~repro.exec.grid.JobSpec` and a scale, and returns the
:class:`~repro.core.results.SimResult` and its host seconds, all of
which pickle. It and the inline path share :func:`simulate`; they
differ only in where the committed trace comes from. Each worker
process memoizes committed traces by ``(benchmark, scale)`` — the
expensive functional execution happens once per process, not once per
job. The simulator holds no random state, so a job's result does not
depend on which worker runs it.

Crash handling: a worker dying mid-job (OOM killer, hard crash)
surfaces as :class:`~concurrent.futures.process.BrokenProcessPool`,
which poisons the whole executor. The pool rebuilds the executor and
resubmits the unfinished items, up to ``retries`` extra attempts per
item, and counts each resubmission in ``retry_count``.

``concurrent.futures`` (and with it ``multiprocessing`` and
``logging``) is imported inside :meth:`WorkerPool.run`, so a process
that never starts a pool never loads it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.results import SimResult
from repro.errors import ConfigError, ReproError
from repro.exec.grid import JobSpec

#: per-process committed-trace memo, keyed (benchmark, scale).
_TRACE_MEMO: Dict[Tuple[str, float], Any] = {}


def _trace_for(benchmark: str, scale: float) -> Any:
    key = (benchmark, scale)
    if key not in _TRACE_MEMO:
        from repro import workloads
        from repro.machine.executor import Executor
        program = workloads.build(benchmark, scale)
        _TRACE_MEMO[key] = Executor(program).run()
    return _TRACE_MEMO[key]


def simulate(job: JobSpec, trace: Callable[[str], Any]
             ) -> Tuple[SimResult, Dict[str, float]]:
    """Run *job* on the committed trace ``trace(job.benchmark)``.

    Returns the result and the host seconds of the trace lookup or
    build (``trace``) and of the engine run (``engine``).
    """
    from repro.core.engine import Engine
    start = time.perf_counter()
    committed = trace(job.benchmark)
    traced = time.perf_counter()
    result = Engine(job.config).run(committed, benchmark=job.benchmark,
                                    label=job.label)
    return result, {"trace": traced - start,
                    "engine": time.perf_counter() - traced}


def run_job(job: JobSpec, scale: float
            ) -> Tuple[SimResult, Dict[str, float]]:
    """The worker entry point: :func:`simulate` on this process's
    memoized trace of the job's benchmark at *scale*."""
    return simulate(job, lambda benchmark: _trace_for(benchmark, scale))


class WorkerPool:
    """A crash-tolerant, order-preserving process pool."""

    def __init__(self, jobs: int, retries: int = 2) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be at least 1, not {jobs}")
        self.jobs = jobs
        self.retries = retries
        #: resubmissions after a worker failure, over every run().
        self.retry_count = 0

    def run(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> List[Any]:
        """``fn(item)`` for every item, in worker processes, results in
        submission order. *fn* must pickle: a top-level function, or a
        :func:`functools.partial` of one.

        Raises:
            ReproError: the first typed error a call raised (a bad
                scale, say): it is deterministic, so it is not retried.
            RuntimeError: when a call keeps failing after ``retries``
                resubmissions.
        """
        from concurrent.futures import ProcessPoolExecutor, as_completed
        results: List[Any] = [None] * len(items)
        pending = list(range(len(items)))
        attempts = [0] * len(items)
        while pending:
            executor = ProcessPoolExecutor(max_workers=self.jobs)
            futures = {executor.submit(fn, items[idx]): idx
                       for idx in pending}
            failed: List[int] = []
            errors: Dict[int, BaseException] = {}
            typed: Optional[ReproError] = None
            for future in as_completed(futures):
                idx = futures[future]
                try:
                    results[idx] = future.result()
                except ReproError as exc:
                    typed = typed or exc
                    failed.append(idx)
                except Exception as exc:  # incl. BrokenProcessPool
                    attempts[idx] += 1
                    errors[idx] = exc
                    failed.append(idx)
            executor.shutdown(wait=False)
            if typed is not None:
                raise typed
            exhausted = [idx for idx in failed
                         if attempts[idx] > self.retries]
            if exhausted:
                idx = exhausted[0]
                raise RuntimeError(
                    f"item {idx} ({items[idx]!r:.120}) failed after "
                    f"{attempts[idx]} attempt(s)") from errors[idx]
            self.retry_count += len(failed)
            pending = sorted(failed)
        return results


__all__ = ["WorkerPool", "run_job", "simulate"]
