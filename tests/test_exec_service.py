"""The execution service: determinism, caching, pooling, retry.

The determinism contract the figures rest on: a job produces the same
cycle count and the same telemetry counter snapshot whether it runs
inline, through the multiprocess pool, or is replayed from the on-disk
cache.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.exec.fingerprint import job_fingerprint
from repro.exec.grid import JobSpec, expand, opt_variant
from repro.exec.pool import WorkerPool, run_job_payload
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
    service = ExecutionService(scale=SCALE, jobs=1)
    job = _jobs()[0]
    via_worker = service.run_payload_inline(job)
    assert via_worker.cycles == serial_results[0].cycles
    assert via_worker.telemetry == serial_results[0].telemetry


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


def test_pool_retries_crashed_worker(tmp_path):
    config = SimConfig.paper()
    fp = job_fingerprint(config, "compress", SCALE)
    marker = tmp_path / "crash-once"
    payload = {"benchmark": "compress", "scale": SCALE,
               "config": config.to_dict(), "label": "baseline",
               "fingerprint": fp, "crash_once_path": str(marker)}
    pool = WorkerPool(2)
    out = pool.run([payload])
    assert marker.exists()
    assert pool.retry_count >= 1
    assert out[0]["fingerprint"] == fp
    # the retried job produced the same result a clean worker does
    clean = run_job_payload({k: v for k, v in payload.items()
                             if k != "crash_once_path"})
    assert out[0]["result"] == clean["result"]


def test_pool_gives_up_after_retries(tmp_path):
    # a payload the worker cannot satisfy: unknown benchmark
    config = SimConfig.paper()
    payload = {"benchmark": "no-such-benchmark", "scale": SCALE,
               "config": config.to_dict(), "label": "baseline",
               "fingerprint": "ff" * 32}
    pool = WorkerPool(2, retries=1)
    with pytest.raises(RuntimeError, match="failed after"):
        pool.run([payload])
    assert pool.retry_count == 1


def test_pool_raises_typed_error_without_retry():
    """A typed error (here a nonsense scale) is deterministic: the pool
    raises it as it is, after one attempt."""
    config = SimConfig.paper()
    payload = {"benchmark": "compress", "scale": float("nan"),
               "config": config.to_dict(), "label": "baseline",
               "fingerprint": "ff" * 32}
    pool = WorkerPool(2)
    with pytest.raises(ConfigError, match="got nan"):
        pool.run([payload])
    assert pool.retry_count == 0


def test_service_counts_worker_retries(serial_results, tmp_path):
    """A worker that dies on its first attempt is resubmitted; the
    service counts the resubmissions and returns the serial results."""
    service = ExecutionService(scale=SCALE, jobs=2)
    payload = service._payload
    marker = str(tmp_path / "crash-once")

    def crashing_payload(job, fp):
        return {**payload(job, fp), "crash_once_path": marker}

    service._payload = crashing_payload
    _assert_identical(serial_results, service.run_many(_jobs()))
    assert os.path.exists(marker)
    assert service.stats["retried"] >= 1
    assert service.stats["simulated"] == len(_jobs())

