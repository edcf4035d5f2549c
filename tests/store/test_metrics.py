"""Tests for StoreMetrics and OperationStats."""
from __future__ import annotations

import gc
import sys

import pytest

from repro.store.metrics import OperationStats
from repro.store.metrics import StoreMetrics
from repro.store.metrics import Timer


def test_timer_measures_positive_elapsed():
    with Timer() as t:
        sum(range(1000))
    assert t.elapsed >= 0.0


def test_operation_stats_record_and_aggregate():
    stats = OperationStats()
    stats.record(0.5, nbytes=10)
    stats.record(1.5, nbytes=20)
    assert stats.count == 2
    assert stats.total_time == pytest.approx(2.0)
    assert stats.avg_time == pytest.approx(1.0)
    assert stats.min_time == pytest.approx(0.5)
    assert stats.max_time == pytest.approx(1.5)
    assert stats.total_bytes == 30


def test_operation_stats_memory_is_flat_over_many_records():
    """A long-running ``metrics=True`` store must not grow per call."""
    stats = OperationStats()
    stats.record(0.001, nbytes=1)
    gc.collect()
    before = sys.getallocatedblocks()
    for i in range(100_000):
        stats.record(i * 1e-6, nbytes=1)  # a distinct float object per call
    gc.collect()
    # Aggregates only: a per-call list would add ~10^5 float blocks here.
    assert sys.getallocatedblocks() - before < 100


def test_operation_stats_empty_defaults():
    stats = OperationStats()
    assert stats.avg_time == 0.0
    assert stats.count == 0


def test_store_metrics_record_and_get():
    metrics = StoreMetrics()
    metrics.record('put', 0.1, nbytes=100)
    metrics.record('put', 0.3, nbytes=200)
    metrics.record('get', 0.2)
    assert metrics.get('put').count == 2
    assert metrics.get('missing') is None
    assert metrics.operations() == ['get', 'put']


def test_store_metrics_as_dict():
    metrics = StoreMetrics()
    metrics.record('op', 0.25, nbytes=5)
    summary = metrics.as_dict()
    assert summary['op']['count'] == 1
    assert summary['op']['total_bytes'] == 5
    assert summary['op']['avg_time'] == pytest.approx(0.25)


def test_store_metrics_iter():
    metrics = StoreMetrics()
    metrics.record('a', 0.1)
    items = dict(iter(metrics))
    assert 'a' in items
