"""The adaptive ``policy='auto'`` routing in StreamProducer.

Small items (serialized size at or under ``inline_threshold``) ride the
event bus inline, large ones are stored behind a proxy key — per item,
by measured size, over both event transports.
"""
from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro
from repro.proxy.proxy import Proxy
from repro.stream import StreamConsumer
from repro.stream import StreamProducer
from repro.stream.channels import PRODUCER_POLICIES

_STORE_COUNTER = iter(range(10**6))


@pytest.fixture()
def stream_store():
    store = repro.store_from_url(
        f'local:///auto-policy-store-{next(_STORE_COUNTER)}?metrics=1',
    )
    yield store
    store.close(clear=True)


def _channel(stream_store, make_bus, topic, threshold=4096, **producer_kwargs):
    producer = StreamProducer(
        stream_store, make_bus(), topic,
        policy='auto', inline_threshold=threshold, **producer_kwargs,
    )
    consumer = StreamConsumer(
        stream_store, make_bus(), topic, from_seq=0, timeout=10.0,
    )
    return producer, consumer


def test_auto_routes_by_measured_size(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic)
    small = b's' * 100
    large = np.arange(100_000)
    producer.send(small)
    producer.send(large)
    producer.close()
    items = list(consumer)
    # Inline item arrives as the deserialized object, proxied as a Proxy.
    assert items[0] == small
    assert not isinstance(items[0], Proxy)
    assert isinstance(items[1], Proxy)
    assert np.array_equal(np.asarray(items[1]), large)
    assert producer.inline_sends == 1
    assert producer.proxy_sends == 1


def test_auto_send_batch_splits_routes(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic)
    objs = [b'a' * 10, np.arange(50_000), 'medium' * 100, np.arange(60_000)]
    producer.send_batch(objs)
    producer.close()
    items = list(consumer)
    assert items[0] == objs[0]
    assert np.array_equal(np.asarray(items[1]), objs[1])
    assert items[2] == objs[2]
    assert np.array_equal(np.asarray(items[3]), objs[3])
    assert producer.inline_sends == 2
    assert producer.proxy_sends == 2


def test_auto_routes_recorded_in_store_metrics(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic)
    producer.send(b'tiny')
    producer.send(np.arange(100_000))
    producer.close()
    list(consumer)
    summary = stream_store.metrics_summary()
    assert summary['stream.inline_sends']['count'] == 1
    assert summary['stream.proxy_sends']['count'] == 1


def test_threshold_boundary_is_inclusive(stream_store, make_bus, topic):
    # A payload whose serialized size == threshold must inline.
    threshold = 1024 + 1  # ident byte + 1024 payload bytes
    producer, consumer = _channel(
        stream_store, make_bus, topic, threshold=threshold,
    )
    producer.send(b'b' * 1024)  # serialized: exactly threshold bytes
    producer.send(b'c' * 1025)  # one over
    producer.close()
    items = list(consumer)
    assert producer.inline_sends == 1
    assert producer.proxy_sends == 1
    assert items[0] == b'b' * 1024
    assert bytes(items[1]) == b'c' * 1025


def test_per_call_inline_overrides_auto(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic)
    producer.send(b'force proxy', inline=False)
    producer.send(np.arange(100_000), inline=True)
    producer.close()
    items = list(consumer)
    assert isinstance(items[0], Proxy)
    assert not isinstance(items[1], Proxy)
    assert producer.proxy_sends == 1
    assert producer.inline_sends == 1


def test_auto_producer_pickle_roundtrip(stream_store, make_bus, topic):
    producer = StreamProducer(
        stream_store, make_bus(), topic,
        policy='auto', inline_threshold=777,
    )
    clone = pickle.loads(pickle.dumps(producer))
    assert clone.policy == 'auto'
    assert clone.inline_threshold == 777


def test_invalid_policy_rejected(stream_store, make_bus, topic):
    with pytest.raises(ValueError, match='unknown stream policy'):
        StreamProducer(stream_store, make_bus(), topic, policy='sometimes')
    assert 'auto' in PRODUCER_POLICIES


def test_inline_flag_still_means_inline_policy(stream_store, make_bus, topic):
    producer = StreamProducer(stream_store, make_bus(), topic, policy='inline')
    assert producer.policy == 'inline'
    default = StreamProducer(stream_store, make_bus(), topic + '-d')
    assert default.policy == 'proxy'


def test_auto_on_partitioned_topic(stream_store, make_bus, topic):
    producer = StreamProducer(
        stream_store, [make_bus()], topic,
        policy='auto', inline_threshold=4096, partitions=2,
    )
    consumers = [
        StreamConsumer(
            stream_store, make_bus(), f'{topic}.p{p}',
            from_seq=0, timeout=10.0,
        )
        for p in range(2)
    ]
    small_items = [f'item-{i}'.encode() for i in range(4)]
    producer.send_batch(small_items)
    producer.send(np.arange(100_000))
    producer.close()
    delivered = []
    for consumer in consumers:
        delivered.extend(list(consumer))
    assert len(delivered) == 5
    assert producer.inline_sends == 4
    assert producer.proxy_sends == 1
