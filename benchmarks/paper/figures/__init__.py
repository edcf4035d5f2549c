"""Benchmark harness: one module per table/figure of the paper's evaluation.

Each ``run_*`` function is pure library code (no pytest dependency) returning
a :class:`~benchmarks.paper.figures.reporting.ResultTable`; the ``benchmarks/`` scripts
call them under ``pytest-benchmark`` and print the same rows/series the paper
reports, and the test suite calls them with reduced parameters to check the
qualitative findings (who wins, where crossovers fall) hold.
"""
from benchmarks.paper.figures.reporting import ResultTable
from benchmarks.paper.figures.reporting import format_table

__all__ = ['ResultTable', 'format_table']
