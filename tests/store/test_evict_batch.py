"""Batched eviction stays batched through a routing connector.

Lifetime closes and consumer acks tear down through ``Store.evict_batch``;
these tests pin that ``MultiConnector`` turns the teardown into one batched
operation per inner connector rather than a per-key fallback loop.
"""
from __future__ import annotations

from repro.connectors.multi import MultiConnector
from repro.connectors.policy import Policy
from tests.conftest import CountingConnector


def test_multi_connector_groups_evictions_per_inner():
    fast = CountingConnector()
    bulk = CountingConnector()
    multi = MultiConnector({
        'fast': (fast, Policy(priority=1, max_size_bytes=100)),
        'bulk': (bulk, Policy(priority=0)),
    })
    small = [multi.put(b's' * 10) for _ in range(3)]
    large = [multi.put(b'l' * 1000) for _ in range(2)]
    assert {key.connector_label for key in small} == {'fast'}
    assert {key.connector_label for key in large} == {'bulk'}
    multi.evict_batch(small + large)
    assert fast.evict_batch_calls == 1
    assert bulk.evict_batch_calls == 1
    assert fast.evict_calls == 0
    assert bulk.evict_calls == 0
    assert not any(multi.exists(key) for key in small + large)


def test_multi_connector_batched_get_routes_per_inner():
    fast = CountingConnector()
    bulk = CountingConnector()
    multi = MultiConnector({
        'fast': (fast, Policy(priority=1, max_size_bytes=100)),
        'bulk': (bulk, Policy(priority=0)),
    })
    keys = [multi.put(b's' * 10), multi.put(b'l' * 1000), multi.put(b's2' * 5)]
    datas = multi.get_batch(keys)
    assert [bytes(d) for d in datas] == [b's' * 10, b'l' * 1000, b's2' * 5]
    missing = multi.get_batch([keys[0]._replace(inner_key=None)])
    assert missing == [None]
