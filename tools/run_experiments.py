"""Regenerate every table and figure and write the results to
out/experiments_output.txt (source material for EXPERIMENTS.md; the
``out/`` directory is generated, git-ignored scratch space).

The full paper grid is prefetched through the execution service
first — in parallel with ``--jobs N``, replayed from the
content-addressed cache with ``--cache-dir`` — and the figure/table
code then consumes the warm results.
"""

import argparse
import pathlib
import time

from repro import workloads
from repro.exec import ExecutionService
from repro.exec.grid import paper_grid
from repro.harness import figures, tables


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="regenerate the paper's figures and tables")
    parser.add_argument("scale", nargs="?", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--scale", dest="scale_opt", type=float,
                        default=None, help="workload scale factor")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation grid")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory")
    parser.add_argument("--output",
                        default="out/experiments_output.txt",
                        help="where to write the rendered report "
                             "(default out/experiments_output.txt; "
                             "parent directories are created)")
    args = parser.parse_args(argv)
    if args.scale_opt is not None:
        args.scale = args.scale_opt
    return args


def main(argv=None):
    args = parse_args(argv)
    t0 = time.time()
    service = ExecutionService(scale=args.scale, jobs=args.jobs,
                               cache_dir=args.cache_dir)
    benchmarks = workloads.names()
    service.run_many(paper_grid(benchmarks))
    out = []
    out.append(tables.table1(service, benchmarks).render())
    for fn in (figures.figure3, figures.figure4, figures.figure5,
               figures.figure6, figures.figure7, figures.figure8):
        fig = fn(service, benchmarks)
        out.append(fig.render())
        if fig.figure == "Figure 7":
            out.append(f"(mean baseline {fig.extra['mean_baseline']:.1f}% "
                       f"-> placement {fig.extra['mean_placement']:.1f}%)")
        if fig.figure == "Figure 8":
            out.append(f"(SPECint95 mean {fig.extra['specint_mean']:.1f}%)")
    out.append(tables.table2(service, benchmarks).render())
    stats = service.stats
    footer = (f"scale={args.scale}  jobs={args.jobs}  "
              f"elapsed={time.time()-t0:.0f}s\n"
              f"exec: simulated={stats['simulated']} "
              f"memo={stats['memo']} disk={stats['disk']} "
              f"(cache hit rate "
              f"{100.0 * service.cache_hit_rate:.0f}%)")
    text = "\n\n".join(out) + f"\n\n{footer}\n"
    output = pathlib.Path(args.output)
    if output.parent != pathlib.Path("."):
        output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text)
    print(text)


if __name__ == "__main__":
    main()
