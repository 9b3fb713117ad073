"""BENCHMARK.json access and the statistics run.py and compare.py share.

Imports nothing from ``src/`` so that ``compare.py`` works on result
files alone.
"""

import json
from pathlib import Path
import re
import statistics

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: workload and metric names: what later changes cite.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def load_spec(path=SPEC_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def quantile(values, p: float) -> float:
    """The *p* quantile of *values*, linearly interpolated between the
    two nearest order statistics (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = p * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (one value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_p(n_ops: int) -> float:
    """The highest percentile with at least ten ops beyond it."""
    return max(0.0, 1.0 - 10.0 / n_ops)
