"""Table 2: percentage of committed instructions transformed by the
fill unit, per optimization.

Paper: "slightly more than 13% of the instructions had some form of
transformation applied"; m88ksim and gnuchess above 20%; moves around
6% of the dynamic stream on average.
"""

import pytest

from repro.harness import tables


@pytest.mark.figure
def test_table2_coverage(benchmark, service, benchmarks, emit):
    table = benchmark.pedantic(tables.table2, args=(service, benchmarks),
                               rounds=1, iterations=1)
    emit(table.render())

    data = {row[0]: {"moves": row[1], "reassoc": row[3],
                     "scaled": row[5], "total": row[7]}
            for row in table.rows[:-1]}
    average = table.rows[-1]

    # Shape claim 1: the all-benchmark transformed fraction is in the
    # paper's low-teens band.
    assert 7.0 < average[7] < 20.0
    # Shape claim 2: m88ksim and gnuchess lead total coverage.
    totals = {name: row["total"] for name, row in data.items()}
    ranked = sorted(totals, key=totals.get, reverse=True)
    assert set(ranked[:2]) == {"m88ksim", "gnuchess"}
    # Shape claim 3: per-category leaders match the paper's Table 2.
    assert data["m88ksim"]["reassoc"] == max(
        row["reassoc"] for row in data.values())
    scaled_leader = max(data, key=lambda n: data[n]["scaled"])
    assert scaled_leader in {"go", "tex"}
    # Shape claim 4: every benchmark has a nonzero transformed share.
    assert all(row["total"] > 1.0 for row in data.values())
