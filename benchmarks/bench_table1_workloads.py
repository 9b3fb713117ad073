"""Table 1: the benchmark inventory.

Regenerates the paper's benchmark table, pairing the original entries
(simulated instruction counts, input sets) with this reproduction's
synthetic stand-ins and their committed lengths.
"""

import pytest

from repro.harness import tables


@pytest.mark.figure
def test_table1_benchmarks(benchmark, service, benchmarks, emit):
    table = benchmark.pedantic(tables.table1, args=(service, benchmarks),
                               rounds=1, iterations=1)
    emit(table.render())
    # All fifteen benchmarks present, every one with a nonempty trace.
    assert len(table.rows) == 15
    committed = {row[0]: row[4] for row in table.rows}
    assert all(count > 5000 for count in committed.values()), committed
    # SPECint95 and UNIX suites both represented, as in the paper.
    suites = {row[1] for row in table.rows}
    assert suites == {"SPECint95", "UNIX"}
