"""Compare two exec-cache envelope sets (regression tracking).

The two directories hold envelopes as written by ``repro figures
--cache-dir``. Envelopes pair by their provenance ``(benchmark, label,
scale)``; every value of the stored result that differs (a scalar
field, a telemetry scope or an attribution class) is listed, old ->
new. The results are compared as stored, so two export schemas still
pair: the ``schema`` line and every key one side lacks (shown ``-``)
name what the newer schema dropped or added.

Exit status 0 when every pair agrees, 1 on any drift or unpaired run,
2 on bad arguments or a record set that cannot be read or paired.

Usage:
    python -m repro figures --scale 0.05 --cache-dir A   # on version A
    python -m repro figures --scale 0.05 --cache-dir B   # on version B
    python tools/compare_runs.py A B
"""

import os
import sys

from repro.core.export import diff_results
from repro.exec.cache import ResultCache


def _name(key) -> str:
    benchmark, label, scale = key
    return f"{benchmark}[{label}] @ {scale}"


def load_envelopes(root: str) -> dict:
    """``{(benchmark, label, scale): (code, result dict)}`` under *root*;
    ``ValueError`` if it is no directory, is empty, holds an unreadable
    envelope or holds two with one key."""
    if not os.path.isdir(root):
        raise ValueError(f"{root}: not a directory")
    runs = {}
    for provenance, result in ResultCache(root).envelopes():
        key = tuple(provenance.get(k)
                    for k in ("benchmark", "label", "scale"))
        if key in runs:
            raise ValueError(f"{root}: {_name(key)} appears twice (two "
                             "code versions in one directory?)")
        runs[key] = (provenance.get("code"), result)
    if not runs:
        raise ValueError(f"{root}: no envelopes")
    return runs


def compare_dirs(dir_a: str, dir_b: str) -> int:
    runs_a, runs_b = load_envelopes(dir_a), load_envelopes(dir_b)
    for root, runs in ((dir_a, runs_a), (dir_b, runs_b)):
        codes = sorted({str(code) for code, _ in runs.values()})
        print(f"{root}: {len(runs)} envelopes, code {', '.join(codes)}")
    shared = sorted(runs_a.keys() & runs_b.keys(), key=str)
    drifted = 0
    for key in shared:
        text = diff_results(runs_a[key][1], runs_b[key][1])
        if text:
            print(text)
            drifted += 1
    unpaired = [(root, key)
                for root, runs, other in ((dir_a, runs_a, runs_b),
                                          (dir_b, runs_b, runs_a))
                for key in sorted(runs.keys() - other.keys(), key=str)]
    for root, key in unpaired:
        print(f"only in {root}: {_name(key)}")
    print(f"{drifted} drifted of {len(shared)} paired experiments, "
          f"{len(unpaired)} unpaired")
    return 1 if drifted or unpaired else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    path_a, path_b = args
    try:
        return compare_dirs(path_a, path_b)
    except (OSError, ValueError) as exc:
        print(f"compare_runs: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
