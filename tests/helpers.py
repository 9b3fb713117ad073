"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import dataclasses

from repro.asm import assemble
from repro.branch.bias import BiasTable
from repro.core.config import SimConfig
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig
from repro.fillunit.unit import FillUnit, FillUnitConfig
from repro.machine.executor import Executor
from repro.tracecache.cache import TraceCache, TraceCacheConfig


def evicting_config(opts: OptimizationConfig, policy: str) -> SimConfig:
    """The paper machine on the evicting ``tiny-evict`` geometry under
    *policy*: a 16-set trace cache and 1 KiB L1I/L1D, so lines are
    evicted and rebuilt and the replacement policies differ."""
    base = SimConfig.paper(opts)
    return dataclasses.replace(
        base,
        trace_cache=dataclasses.replace(base.trace_cache, num_sets=16,
                                        policy=policy),
        hierarchy=dataclasses.replace(base.hierarchy, l1i_size=1024,
                                      l1d_size=1024, policy=policy))


def run_asm(source: str, max_instructions: int = 200_000):
    """Assemble and functionally execute a program; returns
    (program, trace)."""
    program = assemble(source)
    trace = Executor(program).run(max_instructions)
    return program, trace


def build_segments(source: str, optimizations=None, max_instrs: int = 16,
                   max_cond: int = 3, promote_all: bool = False):
    """Assemble *source*, run it, and build optimized trace segments
    from the full retire stream.

    Returns (program, trace, [TraceSegment]). With ``promote_all``,
    every conditional branch is treated as promoted (bias threshold 1
    after pre-warming), useful to pack long segments deterministically.
    """
    program = assemble(source)
    trace = Executor(program).run()
    bias = BiasTable(64, threshold=1 if promote_all else 64)
    if promote_all:
        for record in trace:
            if record.instr.is_cond_branch():
                bias.record(record.pc, record.taken)
                bias.record(record.pc, record.taken)
    opts = optimizations if optimizations is not None \
        else OptimizationConfig.none()
    unit = FillUnit(FillUnitConfig(max_instrs=max_instrs,
                                   max_cond_branches=max_cond,
                                   latency=1, optimizations=opts),
                    TraceCache(TraceCacheConfig(
                        num_sets=64, assoc=4, max_instrs=max_instrs,
                        max_cond_branches=max_cond)),
                    bias)
    segments = []
    collector = FillCollector(bias, max_instrs, max_cond)
    for record in trace:
        for candidate in collector.add(record):
            segments.append(unit.build_segment(candidate))
    return program, trace, segments
