"""Summary statistics for benchmark results.

The paper reports arithmetic means of per-benchmark percentage
improvements ("improve performance ... by slightly more than 18%"), so
the figures, tables and benchmarks average with :func:`arithmetic_mean`.
"""

from __future__ import annotations

from typing import Iterable


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain average.

    Raises:
        ValueError: on an empty input.
    """
    data = list(values)
    if not data:
        raise ValueError("mean of empty sequence")
    return sum(data) / len(data)


__all__ = ["arithmetic_mean"]
