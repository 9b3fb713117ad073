"""Figure 7: fraction of on-path instructions whose last-arriving
source value was delayed by the operand bypass network.

Paper: the placement heuristic reduces the average from ~35% to ~29% —
a reduction, not an elimination. The reproduction checks that placement
lowers the aggregate fraction and never raises it dramatically on any
single benchmark.
"""

import pytest

from repro.harness import figures


@pytest.mark.figure
def test_figure7_bypass_delay(benchmark, service, benchmarks, emit):
    fig = benchmark.pedantic(figures.figure7, args=(service, benchmarks),
                             rounds=1, iterations=1)
    emit(fig.render())
    emit(f"mean baseline {fig.extra['mean_baseline']:.1f}%  ->  "
         f"mean with placement {fig.extra['mean_placement']:.1f}%")

    # Shape claim 1: a meaningful aggregate reduction.
    assert fig.extra["mean_placement"] < fig.extra["mean_baseline"] - 1.0
    # Shape claim 2: baseline fractions are in a plausible band (the
    # paper sees ~35% on a 4-cluster machine).
    assert 10.0 < fig.extra["mean_baseline"] < 70.0
    # Shape claim 3: placement helps most benchmarks (heuristics may
    # tie or slightly lose on a couple, as real heuristics do).
    improved = sum(1 for base, placed in fig.rows.values()
                   if placed <= base + 0.5)
    assert improved >= len(fig.rows) * 2 // 3
