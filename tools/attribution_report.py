"""Render cycle-attribution tables from archived telemetry JSONL.

Usage:
    python -m repro run compress --opts all --events a.jsonl
    python tools/attribution_report.py a.jsonl [b.jsonl ...]

Each ``run.finished`` event in the given file(s) is rendered as an
attribution table; when exactly two runs are found in total, a
side-by-side diff follows.
"""

import sys

from repro.telemetry.attribution import diff_attribution, \
    render_attribution
from repro.telemetry.io import load_attribution_runs


def load_runs(path) -> list:
    """``(label, cycles, attribution)`` per finished run in *path*.

    Thin wrapper over the shared archive loader (kept under the
    historical name); malformed lines are reported but skipped."""
    return load_attribution_runs(path, on_error="warn")


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    runs = []
    for path in sys.argv[1:]:
        found = load_runs(path)
        if not found:
            print(f"{path}: no run.finished events")
        runs.extend(found)
    for label, cycles, attribution in runs:
        if not attribution:
            print(f"{label}: no attribution recorded "
                  "(run without a cycle-accounting session?)")
            continue
        print(render_attribution(attribution, cycles, title=label))
        print()
    if len(runs) == 2 and all(r[2] for r in runs):
        (label_a, _, a), (label_b, _, b) = runs
        print(diff_attribution(label_a, a, label_b, b))
    return 0 if runs else 1


if __name__ == "__main__":
    sys.exit(main())
