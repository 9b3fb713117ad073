"""Multiprocess job execution with retry.

The worker entry point (:func:`run_job_payload`) is a plain top-level
function over a plain-dict payload, so it pickles cleanly and can also
run inline in the parent (``jobs=1``, and the unit tests). Each worker
process memoizes committed traces by ``(benchmark, scale)`` — the
expensive functional execution happens once per process, not once per
job. The simulator holds no random state, so a job's result does not
depend on which worker runs it.

Crash handling: a worker dying mid-job (OOM killer, hard crash)
surfaces as :class:`~concurrent.futures.process.BrokenProcessPool`,
which poisons the whole executor. The pool rebuilds the executor and
resubmits the unfinished payloads, up to ``retries`` extra attempts
per job, and counts each resubmission in ``retry_count``.

``concurrent.futures`` (and with it ``multiprocessing`` and
``logging``) is imported inside :meth:`WorkerPool.run`, so a process
that never starts a pool never loads it.
"""

from __future__ import annotations

import os
from pathlib import Path
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError, ReproError

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


def run_job_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one job described by a picklable payload.

    Payload keys: ``benchmark``, ``scale``, ``config`` (a
    ``SimConfig.to_dict()`` form), ``label``, ``fingerprint``, and
    optionally ``crash_once_path`` (test hook: hard-kill this worker
    the first time the job is attempted, to exercise retry).
    Returns ``{"fingerprint", "result", "host_s"}`` with the result in
    the :mod:`repro.core.export` dict schema and ``host_s`` the host
    seconds of the trace lookup or build (``trace``) and of the engine
    run (``engine``).
    """
    marker = payload.get("crash_once_path")
    if marker is not None and not os.path.exists(marker):
        Path(marker).touch()
        os._exit(17)

    from repro.core.config import SimConfig
    from repro.core.engine import Engine
    from repro.core.export import result_to_dict

    config = SimConfig.from_dict(payload["config"])
    start = time.perf_counter()
    trace = _trace_for(payload["benchmark"], payload["scale"])
    traced = time.perf_counter()
    result = Engine(config).run(trace, benchmark=payload["benchmark"],
                                label=payload["label"])
    return {"fingerprint": payload["fingerprint"],
            "result": result_to_dict(result),
            "host_s": {"trace": traced - start,
                       "engine": time.perf_counter() - traced}}


class WorkerPool:
    """A crash-tolerant, order-preserving process pool."""

    def __init__(self, jobs: int, retries: int = 2) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be at least 1, not {jobs}")
        self.jobs = jobs
        self.retries = retries
        #: resubmissions after a worker failure, over every run().
        self.retry_count = 0

    def run(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """All payloads through :func:`run_job_payload`, results in
        submission order.

        Raises:
            ReproError: the first typed error a job raised (a bad
                scale, say): it is deterministic, so it is not retried.
            RuntimeError: when a job keeps failing after ``retries``
                resubmissions.
        """
        from concurrent.futures import ProcessPoolExecutor, as_completed
        results: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        attempts = [0] * len(payloads)
        while pending:
            executor = ProcessPoolExecutor(max_workers=self.jobs)
            futures = {executor.submit(run_job_payload, payloads[idx]): idx
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
                    f"job {payloads[idx].get('label')!r} on "
                    f"{payloads[idx].get('benchmark')!r} failed after "
                    f"{attempts[idx]} attempt(s)") from errors[idx]
            self.retry_count += len(failed)
            pending = sorted(failed)
        return [r for r in results if r is not None]


__all__ = ["WorkerPool", "run_job_payload"]
