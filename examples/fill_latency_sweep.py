#!/usr/bin/env python3
"""Sweep the fill-unit pipeline latency (the paper's Figure 8 knob).

The whole argument of the paper rests on the fill unit being off the
critical path: doing optimization work there is nearly free because the
fill pipeline's latency barely matters. This sweep makes that visible
across a wide latency range on a benchmark of your choice.

Run:  python examples/fill_latency_sweep.py [benchmark]
"""

import sys

from repro import Engine, Executor, OptimizationConfig, SimConfig, workloads


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "gnuchess"
    trace = Executor(workloads.build(bench, scale=0.4)).run()

    print(f"{bench}: combined-optimization IPC vs fill-unit latency")
    baseline = Engine(SimConfig.paper()).run(trace, bench, "baseline")
    print(f"  baseline (no opts, 5-cycle fill): IPC {baseline.ipc:.3f}")
    for latency in (1, 2, 5, 10, 20, 50):
        config = SimConfig.paper(OptimizationConfig.all(), latency)
        result = Engine(config).run(trace, bench, f"lat{latency}")
        print(f"  fill latency {latency:3d} cycles: IPC {result.ipc:.3f} "
              f"(+{result.improvement_over(baseline):.1f}% over baseline)")
    print("\nthe improvement barely moves: the fill pipeline is "
          "latency-tolerant, exactly the paper's point.")


if __name__ == "__main__":
    main()
