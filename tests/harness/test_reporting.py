"""Tests of the harness result-table utilities."""
from __future__ import annotations

import pytest

from benchmarks.paper.figures import ResultTable
from benchmarks.paper.figures import format_table
from benchmarks.paper.figures.reporting import mean
from benchmarks.paper.figures.reporting import stdev


def test_mean_and_stdev():
    assert mean([]) == 0.0
    assert mean([1, 2, 3]) == pytest.approx(2.0)
    assert stdev([5]) == 0.0
    assert stdev([2, 4]) == pytest.approx(1.0)


def test_add_row_and_column():
    table = ResultTable('t', ['a', 'b'])
    table.add_row(a=1, b='x')
    table.add_row(a=2, b='y')
    assert len(table) == 2
    assert table.column('a') == [1, 2]


def test_filter_and_value():
    table = ResultTable('t', ['method', 'size', 'time'])
    table.add_row(method='m1', size=10, time=1.0)
    table.add_row(method='m1', size=20, time=2.0)
    table.add_row(method='m2', size=10, time=3.0)
    assert len(table.filter(method='m1')) == 2
    assert table.value('time', method='m2', size=10) == 3.0
    with pytest.raises(KeyError):
        table.value('time', method='m1')  # two matches
    with pytest.raises(KeyError):
        table.value('time', method='m3', size=10)  # no matches


def test_format_table_renders_all_pieces():
    table = ResultTable('My Title', ['col', 'value'])
    table.add_row(col='x', value=1.2345)
    table.add_row(col='y', value=None)
    table.add_note('a note')
    text = format_table(table)
    assert 'My Title' in text
    assert 'col' in text and 'value' in text
    assert '1.234' in text
    assert '--' in text
    assert 'note: a note' in text


def test_format_table_max_rows():
    table = ResultTable('t', ['a'])
    for i in range(10):
        table.add_row(a=i)
    text = format_table(table, max_rows=3)
    assert 'more rows' in text


def test_str_uses_format_table():
    table = ResultTable('Str Title', ['a'])
    table.add_row(a=0.0001)
    assert 'Str Title' in str(table)
