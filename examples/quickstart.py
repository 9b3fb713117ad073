#!/usr/bin/env python3
"""Quickstart: measure the paper's headline result on one benchmark.

Builds the m88ksim stand-in, runs it through the baseline trace-cache
machine and through the machine whose fill unit performs all four
dynamic trace optimizations, and reports the IPC improvement — the
experiment behind the paper's Figure 8.

Run:  python examples/quickstart.py [benchmark] [scale]
"""

import sys

from repro import Engine, Executor, OptimizationConfig, SimConfig, workloads


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "m88ksim"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    print(f"building {bench} (scale {scale}) ...")
    program = workloads.build(bench, scale)
    print(f"  {len(program)} static instructions, "
          f"{len(program.data)} data bytes")

    trace = Executor(program).run()
    print(f"  {len(trace)} committed instructions "
          f"(checksum {trace.output})")

    baseline = Engine(SimConfig.paper()).run(trace, bench, "baseline")
    optimized = Engine(
        SimConfig.paper(OptimizationConfig.all())).run(trace, bench,
                                                       "optimized")

    print()
    print(baseline.summary())
    print(optimized.summary())
    print()
    coverage = optimized.coverage.as_percentages(optimized.instructions)
    print(f"IPC improvement: +{optimized.improvement_over(baseline):.1f}%")
    print(f"instructions transformed by the fill unit: "
          f"{coverage['any_opt']:.1f}% "
          f"(moves {coverage['moves']:.1f}%, "
          f"reassoc {coverage['reassoc']:.1f}%, "
          f"scaled adds {coverage['scaled']:.1f}%)")
    print(f"trace cache supplied {100 * optimized.tc_instr_fraction:.1f}% "
          f"of all committed instructions")


if __name__ == "__main__":
    main()
