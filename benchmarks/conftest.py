"""Shared fixtures for the figure/table regeneration benchmarks.

One :class:`~repro.exec.service.ExecutionService` is shared across the
whole benchmark session so the committed traces and per-configuration
results are computed once and reused by every figure.

Environment knobs:

* ``REPRO_BENCH_SCALE`` (default 0.6) multiplies workload lengths;
  1.0 reproduces the numbers quoted in EXPERIMENTS.md.
* ``REPRO_BENCH_JOBS`` (default 1) sizes the execution service's
  worker pool; the paper grid is prefetched through it up front.
* ``REPRO_BENCH_CACHE`` (unset by default) points the service at a
  content-addressed on-disk result cache shared between sessions.

A reachability or coverage measurement over ``pytest benchmarks``
must pass ``--benchmark-disable``: ``benchmark.pedantic`` clears
``sys.setprofile`` while it runs the timed call, so without the flag
code reached only inside timed calls (``core/wrongpath.py``,
block-granular collection) wrongly shows as unreached.
"""

import os

import pytest

from repro import workloads
from repro.exec import ExecutionService
from repro.exec.grid import paper_grid


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure: marks a paper figure/table regeneration")


@pytest.fixture(scope="session")
def benchmarks():
    """Every workload, in registry order (the figures' row order)."""
    return workloads.names()


@pytest.fixture(scope="session")
def service(benchmarks):
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.6"))
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache_dir = os.environ.get("REPRO_BENCH_CACHE") or None
    service = ExecutionService(scale=scale, jobs=jobs, cache_dir=cache_dir)
    if jobs > 1 or cache_dir:
        service.run_many(paper_grid(benchmarks))
    return service


@pytest.fixture(scope="session")
def emit():
    """Print a rendered figure/table under a visible banner."""
    def _emit(text: str) -> None:
        print("\n" + "=" * 72)
        print(text)
        print("=" * 72)
    return _emit
