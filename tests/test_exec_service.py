"""The execution service: determinism, caching, pooling, retry.

The determinism contract the figures rest on: a job produces the same
cycle count and the same telemetry counter snapshot whether it runs
inline, through the multiprocess pool, or is replayed from the on-disk
cache.
"""

from __future__ import annotations

from functools import partial
import os
from pathlib import Path

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError, UnknownBenchmarkError
from repro.exec import service as service_module
from repro.exec.grid import JobSpec, expand, opt_variant
from repro.exec.pool import WorkerPool, run_job
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig

SCALE = 0.05
BENCHMARKS = ("compress", "li")


def _jobs():
    return expand(BENCHMARKS,
                  [opt_variant(OptimizationConfig.none()),
                   opt_variant(OptimizationConfig.all())])


@pytest.fixture(scope="module")
def serial_results():
    service = ExecutionService(scale=SCALE, jobs=1)
    return service.run_many(_jobs())


def _assert_identical(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.benchmark == b.benchmark
        assert a.config_label == b.config_label
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions
        assert a.telemetry == b.telemetry


def test_pool_matches_serial(serial_results):
    pooled = ExecutionService(scale=SCALE, jobs=4)
    _assert_identical(serial_results, pooled.run_many(_jobs()))
    assert pooled.stats["simulated"] == len(_jobs())


def test_cache_hit_matches_serial(serial_results, tmp_path):
    writer = ExecutionService(scale=SCALE, jobs=1, cache_dir=tmp_path)
    writer.run_many(_jobs())
    reader = ExecutionService(scale=SCALE, jobs=1, cache_dir=tmp_path)
    replayed = reader.run_many(_jobs())
    _assert_identical(serial_results, replayed)
    assert reader.stats == {"memo": 0, "disk": len(_jobs()),
                            "simulated": 0, "retried": 0}
    assert reader.cache_hit_rate == 1.0


def test_worker_path_matches_inline(serial_results):
    result, host_s = run_job(_jobs()[0], SCALE)
    assert result == serial_results[0]
    assert set(host_s) == {"trace", "engine"}


def test_memo_serves_repeats_without_resimulating():
    service = ExecutionService(scale=SCALE, jobs=1)
    job = JobSpec("compress", SimConfig.paper(), "baseline")
    first = service.run(job)
    second = service.run(job)
    assert second is first
    assert service.stats == {"memo": 1, "disk": 0, "simulated": 1,
                             "retried": 0}


def test_duplicate_jobs_in_batch_simulate_once():
    service = ExecutionService(scale=SCALE, jobs=1)
    job = JobSpec("compress", SimConfig.paper(), "baseline")
    twin = JobSpec("compress", SimConfig.paper(), "also-baseline")
    results = service.run_many([job, twin])
    assert service.stats["simulated"] == 1
    assert results[0].cycles == results[1].cycles
    # labels stay per-job even though the machine is shared
    assert results[0].config_label == "baseline"
    assert results[1].config_label == "also-baseline"


def _crash_once(marker, job, scale):
    """:func:`run_job`, except that the first call (while *marker* does
    not exist yet) hard-kills its worker process."""
    if not os.path.exists(marker):
        Path(marker).touch()
        os._exit(17)
    return run_job(job, scale)


def test_pool_retries_crashed_worker(tmp_path):
    job = JobSpec("compress", SimConfig.paper(), "baseline")
    marker = tmp_path / "crash-once"
    pool = WorkerPool(2)
    out = pool.run(partial(_crash_once, str(marker), scale=SCALE), [job])
    assert marker.exists()
    assert pool.retry_count >= 1
    # the retried job produced the same result a clean worker does
    assert out[0][0] == run_job(job, SCALE)[0]


def _always_crash(job):
    """Hard-kills its worker process, every time."""
    os._exit(17)


def test_pool_gives_up_after_retries():
    job = JobSpec("compress", SimConfig.paper(), "baseline")
    pool = WorkerPool(2, retries=1)
    with pytest.raises(RuntimeError, match="failed after 2 attempt"):
        pool.run(_always_crash, [job])
    assert pool.retry_count == 1


def test_unknown_benchmark_is_a_typed_error_pooled_and_inline():
    """An unknown benchmark is a deterministic, typed error naming the
    known ones: the pool raises it after one attempt, and the inline
    path raises it too."""
    job = JobSpec("no-such-benchmark", SimConfig.paper(), "baseline")
    pool = WorkerPool(2)
    with pytest.raises(UnknownBenchmarkError, match="known: compress"):
        pool.run(partial(run_job, scale=SCALE), [job])
    assert pool.retry_count == 0
    with pytest.raises(UnknownBenchmarkError, match="no-such-benchmark"):
        ExecutionService(scale=SCALE, jobs=1).run(job)


def test_pool_raises_typed_error_without_retry():
    """A typed error (here a nonsense scale) is deterministic: the pool
    raises it as it is, after one attempt."""
    job = JobSpec("compress", SimConfig.paper(), "baseline")
    pool = WorkerPool(2)
    with pytest.raises(ConfigError, match="got nan"):
        pool.run(partial(run_job, scale=float("nan")), [job])
    assert pool.retry_count == 0


def test_service_counts_worker_retries(serial_results, tmp_path,
                                       monkeypatch):
    """A worker that dies on its first attempt is resubmitted; the
    service counts the resubmissions and returns the serial results."""
    marker = str(tmp_path / "crash-once")
    monkeypatch.setattr(service_module, "run_job",
                        partial(_crash_once, marker))
    service = ExecutionService(scale=SCALE, jobs=2)
    _assert_identical(serial_results, service.run_many(_jobs()))
    assert os.path.exists(marker)
    assert service.stats["retried"] >= 1
    assert service.stats["simulated"] == len(_jobs())
