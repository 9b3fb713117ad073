"""Compare two run records (regression tracking).

Two forms are understood:

* two directories — exec-cache envelope sets, as written by
  ``repro figures --cache-dir``. Envelopes pair by their provenance
  ``(benchmark, label, scale)``; every counter that differs (a scalar
  field, a telemetry scope or an attribution class) is listed,
  old -> new.
* two ``.jsonl`` files — telemetry event archives written with
  ``repro run --events``; the runs' cycle attributions are diffed side by
  side.

Exit status 0 when every pair agrees, 1 on any drift or unpaired run,
2 on bad arguments or a record set that cannot be read or paired.

Usage:
    python -m repro figures --scale 0.05 --cache-dir A   # on version A
    python -m repro figures --scale 0.05 --cache-dir B   # on version B
    python tools/compare_runs.py A B

    python -m repro run compress --events a.jsonl
    python -m repro run compress --opts none --events b.jsonl
    python tools/compare_runs.py a.jsonl b.jsonl
"""

import os
import sys

from repro.core.export import diff_results
from repro.exec.cache import ResultCache


def _name(key) -> str:
    benchmark, label, scale = key
    return f"{benchmark}[{label}] @ {scale}"


def _unpaired(name_a: str, runs_a: dict, name_b: str, runs_b: dict) -> list:
    """``(name, key)`` of every key found on one side only."""
    return [(name, key)
            for name, runs, other in ((name_a, runs_a, runs_b),
                                      (name_b, runs_b, runs_a))
            for key in sorted(runs.keys() - other.keys(), key=str)]


def load_envelopes(root: str) -> dict:
    """``{(benchmark, label, scale): (code, result)}`` under *root*;
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
    unpaired = _unpaired(dir_a, runs_a, dir_b, runs_b)
    for root, key in unpaired:
        print(f"only in {root}: {_name(key)}")
    print(f"{drifted} drifted of {len(shared)} paired experiments, "
          f"{len(unpaired)} unpaired")
    return 1 if drifted or unpaired else 0


def compare_jsonl(path_a: str, path_b: str) -> int:
    from repro.telemetry.attribution import diff_attribution
    from repro.telemetry.io import load_attribution_runs

    runs_a, runs_b = ({label: (cycles, attr) for label, cycles, attr
                       in load_attribution_runs(path, on_error="warn")}
                      for path in (path_a, path_b))
    shared = sorted(runs_a.keys() & runs_b.keys())
    if len(runs_a) == len(runs_b) == 1 and not shared:
        # One run each under distinct labels (`run X --opts all` vs
        # `run X --opts none`): pair them.
        pairs = [(*runs_a, *runs_b)]
        unpaired = []
    else:
        pairs = [(key, key) for key in shared]
        unpaired = _unpaired(path_a, runs_a, path_b, runs_b)
    drifted = 0
    for key_a, key_b in pairs:
        cycles_a, attr_a = runs_a[key_a]
        cycles_b, attr_b = runs_b[key_b]
        title = key_a if key_a == key_b else f"{key_a} vs {key_b}"
        print(title)
        print(diff_attribution(path_a, attr_a, path_b, attr_b))
        if cycles_a != cycles_b:
            drifted += 1
        print()
    for path, key in unpaired:
        print(f"only in {path}: {key}")
    print(f"{drifted} of {len(pairs)} compared runs changed cycle count, "
          f"{len(unpaired)} unpaired")
    return 1 if drifted or unpaired else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    path_a, path_b = args
    try:
        if path_a.endswith(".jsonl") or path_b.endswith(".jsonl"):
            return compare_jsonl(path_a, path_b)
        return compare_dirs(path_a, path_b)
    except (OSError, ValueError) as exc:
        print(f"compare_runs: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
