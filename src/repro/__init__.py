"""repro — reproduction of "Putting the Fill Unit to Work: Dynamic
Optimizations for Trace Cache Microprocessors" (Friendly, Patel, Patt;
MICRO-31, 1998).

The package implements, from scratch, everything the paper's
evaluation rests on:

* a SimpleScalar-style ISA with assembler and functional machine
  (:mod:`repro.isa`, :mod:`repro.asm`, :mod:`repro.machine`);
* the memory hierarchy and branch prediction complex
  (:mod:`repro.cache`, :mod:`repro.branch`);
* the trace cache and fill unit with the paper's four dynamic trace
  optimizations (:mod:`repro.tracecache`, :mod:`repro.fillunit`);
* a 16-wide clustered trace-cache processor timing model
  (:mod:`repro.core`);
* run observability — hierarchical counters, structured events, exact
  cycle attribution (:mod:`repro.telemetry`);
* fifteen synthetic benchmarks standing in for SPECint95 + UNIX apps
  (:mod:`repro.workloads`), and the experiment harness regenerating
  every table and figure (:mod:`repro.harness`).

Quickstart — the one run path: execute a program into its committed
trace, then replay the trace through a fresh timing engine::

    from repro import Engine, Executor, SimConfig, workloads
    from repro.fillunit.opts import OptimizationConfig

    trace = Executor(workloads.build("m88ksim")).run()

    baseline = Engine(SimConfig.paper()).run(trace, "m88ksim", "baseline")
    optimized = Engine(
        SimConfig.paper(OptimizationConfig.all())
    ).run(trace, "m88ksim", "optimized")

    print(f"IPC {baseline.ipc:.2f} -> {optimized.ipc:.2f} "
          f"(+{optimized.improvement_over(baseline):.1f}%)")

Grids of runs (the figures and tables) go through
:class:`repro.exec.ExecutionService`, which adds a result cache and a
worker pool around the same two calls.
"""

from repro import workloads
from repro.asm import assemble
from repro.core import Engine, SimConfig, SimResult
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine import Executor
from repro.program import Program
from repro.telemetry import Telemetry

__version__ = "1.0.0"

__all__ = [
    "assemble",
    "Program",
    "Executor",
    "Engine",
    "SimConfig",
    "SimResult",
    "OptimizationConfig",
    "Telemetry",
    "workloads",
    "__version__",
]
