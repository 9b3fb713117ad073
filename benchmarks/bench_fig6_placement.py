"""Figure 6: IPC improvement from fill-unit instruction placement.

Paper: ~5% average; ijpeg (parallel accumulator chains) the largest at
~11%, tex the smallest at ~1%. The reproduction checks the same shape:
a positive mean, the chain-parallel codes (ijpeg, gnuplot) near the
top, tex near the bottom.
"""

import pytest

from repro.harness import figures


@pytest.mark.figure
def test_figure6_placement(benchmark, service, benchmarks, emit):
    fig = benchmark.pedantic(figures.figure6, args=(service, benchmarks),
                             rounds=1, iterations=1)
    emit(fig.render())

    rows = fig.rows
    # Shape claim 1: positive on average.
    assert 1.0 < fig.mean < 12.0
    # Shape claim 2: the chain-parallel codes benefit most.
    top_pair = max(rows["ijpeg"], rows["gnuplot"])
    assert top_pair >= max(rows.values()) * 0.5
    # Shape claim 3: tex gains little (its loops are single-chain).
    assert rows["tex"] < fig.mean
