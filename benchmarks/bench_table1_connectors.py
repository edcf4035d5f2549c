"""Table 1: connector capability matrix."""
from __future__ import annotations

from benchmarks.conftest import print_table
from benchmarks.paper.figures.table1 import run_table1


def test_table1_connector_summary(benchmark):
    table = benchmark(run_table1)
    print_table(table)
    assert len(table) >= 8
