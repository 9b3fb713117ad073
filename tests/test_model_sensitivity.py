"""Model sensitivity checks: the combined optimizations against the
baseline machine as one knob moves, each a pair of jobs through the
execution service."""

from dataclasses import replace

import pytest

from repro.core.config import SimConfig
from repro.exec.grid import JobSpec
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig


@pytest.fixture(scope="module")
def service():
    return ExecutionService(scale=0.1)


def gain(service, make_config):
    """Percent IPC gain of all optimizations over none on compress,
    both on the machine ``make_config(opts)`` builds."""
    baseline, optimized = service.run_many([
        JobSpec("compress", make_config(OptimizationConfig.none()), "none"),
        JobSpec("compress", make_config(OptimizationConfig.all()), "all")])
    return optimized.improvement_over(baseline)


def test_gain_tolerates_fill_latency(service):
    fast = gain(service, lambda opts: SimConfig.paper(opts, 1))
    slow = gain(service, lambda opts: SimConfig.paper(opts, 10))
    assert abs(fast - slow) < 6.0


def test_costlier_bypass_gives_more_gain(service):
    def penalty(cycles):
        return lambda opts: replace(SimConfig.paper(opts),
                                    cross_cluster_penalty=cycles)
    assert gain(service, penalty(2)) >= gain(service, penalty(0)) - 1.0


def test_more_checkpoints_never_slow_the_baseline(service):
    scarce, plenty = service.run_many([
        JobSpec("compress", replace(SimConfig.paper(), max_checkpoints=n),
                f"checkpoints@{n}")
        for n in (2, 32)])
    assert plenty.ipc >= scarce.ipc
