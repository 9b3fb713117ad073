"""Synthetic workloads standing in for SPECint95 + UNIX applications.

The paper evaluates on SPECint95 and seven common UNIX programs
(Table 1). Those binaries, their inputs and the gcc-2.6.3/SimpleScalar
toolchain are unavailable here, and cycle-level Python simulation of
10^8-instruction runs is infeasible — so each benchmark is replaced by
a synthetic kernel written in the reproduction's assembly language
whose *dataflow idiom mix* is tuned to that benchmark's optimization
opportunity profile from the paper's Table 2 (register-move fraction,
cross-block immediate chains, shift+add address arithmetic) and whose
control structure echoes the application (interpreter dispatch for li /
perl / python, game-tree recursion for go / chess, table hashing for
compress, device rasterization loops for ghostscript, ...).

See DESIGN.md §3 for why this substitution preserves the paper's
claims' *shape* and what it gives up.

Public API::

    from repro import workloads

    program = workloads.build("m88ksim", scale=1.0)
    for name in workloads.names():
        ...
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.program.image import Program
from repro.workloads import registry
from repro.workloads.registry import BenchmarkSpec, PAPER_TABLE2

__all__ = ["build", "names", "spec", "BenchmarkSpec", "PAPER_TABLE2"]


def names() -> list:
    """The fifteen benchmark names, in the paper's Table 1 order."""
    return registry.names()


def spec(name: str) -> BenchmarkSpec:
    """The registry entry for *name* (builder + paper-reported traits).

    Raises:
        UnknownBenchmarkError: for unknown benchmark names.
    """
    return registry.spec(name)


def build(name: str, scale: float = 1.0) -> Program:
    """Assemble the named benchmark.

    *scale* multiplies the dynamic-length knob (1.0 gives roughly
    30k-80k committed instructions per benchmark — large enough for
    promotion, trace-cache warmup and stable IPC, small enough for
    laptop-scale grids).

    Raises:
        ConfigError: when *scale* is not a finite positive number, or
            is so large that a count the workload emits would not fit.
        UnknownBenchmarkError: for unknown benchmark names.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError(
            f"workload scale must be a finite positive number, "
            f"got {scale!r}")
    spec = registry.spec(name)
    try:
        return spec.build(scale)
    except ConfigError as err:
        raise ConfigError(f"workload scale {scale!r} is too large for "
                          f"{name}: {err}") from None
