"""Figure 5: IPC improvement from scaled-add creation.

Paper: improvements of 1-8% averaging 3.7%, with go and tex — whose
hot loops index arrays from loaded values — at the top.
"""

import pytest

from repro.analysis.stats import arithmetic_mean
from repro.harness import figures


@pytest.mark.figure
def test_figure5_scaled_adds(benchmark, service, benchmarks, emit):
    fig = benchmark.pedantic(figures.figure5, args=(service, benchmarks),
                             rounds=1, iterations=1)
    emit(fig.render())

    rows = fig.rows
    # Shape claim 1: a modest positive mean in the paper's band.
    assert 1.0 < fig.mean < 10.0
    # Shape claim 2: go and tex lead the pack (array-index chains are
    # on their loop recurrences).
    index_heavy = arithmetic_mean([rows["go"], rows["tex"]])
    pointer_codes = arithmetic_mean([rows["li"], rows["vortex"],
                                     rows["m88ksim"], rows["pgp"]])
    assert index_heavy > pointer_codes + 2.0
    # Shape claim 3: nothing regresses meaningfully.
    assert all(value > -1.5 for value in rows.values())
