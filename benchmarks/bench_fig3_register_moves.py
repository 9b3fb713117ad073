"""Figure 3: IPC improvement from register-move marking.

Paper claims reproduced in shape: a positive improvement on essentially
every benchmark, averaging around 5%, with the pointer-chasing and
call-glue codes (li, vortex, gnuplot, m88ksim) at the top and the
array codes (go, tex, ijpeg) at the bottom.
"""

import pytest

from repro.analysis.stats import arithmetic_mean
from repro.harness import figures


@pytest.mark.figure
def test_figure3_register_moves(benchmark, service, benchmarks, emit):
    fig = benchmark.pedantic(figures.figure3, args=(service, benchmarks),
                             rounds=1, iterations=1)
    emit(fig.render())

    rows = fig.rows
    # Shape claim 1: positive on average, in the mid-single-digits band.
    assert 2.0 < fig.mean < 15.0
    # Shape claim 2: no benchmark regresses meaningfully.
    assert all(value > -1.0 for value in rows.values())
    # Shape claim 3: move-rich codes beat move-poor codes.
    move_rich = arithmetic_mean([rows["li"], rows["vortex"],
                                 rows["gnuplot"]])
    move_poor = arithmetic_mean([rows["go"], rows["tex"], rows["ijpeg"]])
    assert move_rich > 2 * move_poor
