"""Compare two sets of benchmark runs, workload by workload.

Usage::

    python3 bench/compare.py before.json after.json

Each file is what ``bench/run.py --out`` writes (ideally several runs
per workload, e.g. ``--runs 10``). For each workload and end-to-end
metric in BENCHMARK.json it prints each side's median and quartiles
across runs and a verdict:

* ``worse``/``better`` — the medians differ by more than the metric's
  bound, in its ``better`` direction;
* ``same`` — they differ by no more than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  exceeds the bound, unless every run of B beats every run of A.

It exits 1 when any verdict is ``worse`` or B's failed-op fraction is
higher than A's, else 0. Traced runs are ignored.
"""

import argparse
import json
import sys

from spec import load_spec, quartiles


def load_runs(path) -> list:
    with open(path) as handle:
        return [run for run in json.load(handle)["runs"]
                if not run["trace"]]


def verdict(a: list, b: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    change = sign * (med_b - med_a) / med_a          # > 0: B is worse
    spread = max((q3 - q1) / med for q1, med, q3 in map(quartiles, (a, b)))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def fail_frac(runs: list) -> float:
    return (sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs))


def fmt(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:11.4g} [{q1:.4g}, {q3:.4g}]"


def compare(runs_a: list, runs_b: list, spec: dict) -> int:
    status = 0
    print(f"{'workload':10s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a = [r for r in runs_a if r["workload"] == workload]
        b = [r for r in runs_b if r["workload"] == workload]
        if not a or not b:
            print(f"{workload:10s} (missing from {'A' if not a else 'B'})")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            word = verdict(va, vb, metric["better"], metric["bound"])
            status |= word == "worse"
            print(f"{workload:10s} {name:12s} {fmt(va):>30s} "
                  f"{fmt(vb):>30s}  {word} (n={len(va)}/{len(vb)}, "
                  f"bound {metric['bound']:.0%})")
        fa, fb = fail_frac(a), fail_frac(b)
        word = "worse" if fb > fa else "same"
        status |= fb > fa
        print(f"{workload:10s} {'fail_frac':12s} {fa:30.4g} {fb:30.4g}  "
              f"{word}")
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="runs of the reference (parent)")
    parser.add_argument("b", help="runs of the change")
    args = parser.parse_args(argv)
    return compare(load_runs(args.a), load_runs(args.b), load_spec())


if __name__ == "__main__":
    sys.exit(main())
