"""StreamProducer/StreamConsumer behavior over both event transports.

Ordering, metadata, end-of-stream, ack-driven batch eviction, owned-item
eviction, lifetime binding, inline events, and catch-up from retention.
"""
from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro
from repro.exceptions import NodeUnavailableError
from repro.exceptions import StoreError
from repro.exceptions import StoreKeyError
from repro.exceptions import UseAfterFreeError
from repro.proxy import drop
from repro.proxy import is_owned
from repro.proxy.proxy import Proxy
from repro.store import ContextLifetime
from repro.store.factory import StoreFactory
from repro.stream import StreamConsumer
from repro.stream import StreamProducer

def _channel(stream_store, make_bus, topic, **consumer_kwargs):
    bus = make_bus()
    producer = StreamProducer(stream_store, bus, topic)
    consumer = StreamConsumer(
        stream_store, make_bus(), topic,
        from_seq=0, timeout=10.0, **consumer_kwargs,
    )
    return producer, consumer


def test_stream_orders_and_yields_lazy_proxies(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic)
    for i in range(10):
        producer.send({'rank': i})
    producer.close()
    items = list(consumer)
    assert len(items) == 10
    assert all(isinstance(item, Proxy) for item in items)
    assert not any(repro.is_resolved(item) for item in items)
    assert [item['rank'] for item in items] == list(range(10))


def test_send_batch_preserves_order(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic)
    seqs = producer.send_batch([np.arange(4) * i for i in range(6)])
    assert seqs == list(range(6))
    producer.close()
    items = list(consumer)
    for i, item in enumerate(items):
        np.testing.assert_array_equal(np.asarray(item), np.arange(4) * i)


def test_events_carry_metadata_and_seq(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic)
    producer.send(b'payload', metadata={'round': 7})
    producer.close()
    (event, item), = list(consumer.events())
    assert event.seq == 0
    assert event.metadata == {'round': 7}
    assert not event.inline
    assert bytes(item) == b'payload'


def test_closed_producer_rejects_sends(stream_store, make_bus, topic):
    producer, _ = _channel(stream_store, make_bus, topic)
    producer.close()
    with pytest.raises(StoreError):
        producer.send(1)


def test_ack_batch_evicts_delivered_items(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic)
    for i in range(4):
        producer.send(i)
    producer.close()
    delivered = list(consumer.events())
    keys = [event.key for event, _ in delivered]
    assert all(stream_store.exists(key) for key in keys)
    assert consumer.ack() == 4
    assert not any(stream_store.exists(key) for key in keys)
    assert consumer.ack() == 0  # idempotent
    with pytest.raises(StoreKeyError):
        StoreFactory(keys[0], stream_store.config()).resolve()


def test_owned_mode_evicts_on_drop(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic, owned=True)
    producer.send({'model': 1})
    producer.close()
    (event, item), = list(consumer.events())
    assert is_owned(item)
    assert stream_store.exists(event.key)
    drop(item)
    assert not stream_store.exists(event.key)
    with pytest.raises(UseAfterFreeError):
        item['model']


def test_lifetime_binding_evicts_on_scope_close(stream_store, make_bus, topic):
    lifetime = ContextLifetime(store=stream_store)
    producer, consumer = _channel(
        stream_store, make_bus, topic, lifetime=lifetime,
    )
    for i in range(3):
        producer.send(i)
    producer.close()
    events = list(consumer.events())
    keys = [event.key for event, _ in events]
    assert all(stream_store.exists(key) for key in keys)
    lifetime.close()
    assert not any(stream_store.exists(key) for key in keys)


def test_owned_and_lifetime_are_mutually_exclusive(stream_store, make_bus, topic):
    with pytest.raises(ValueError):
        StreamConsumer(
            stream_store, make_bus(), topic,
            owned=True, lifetime=ContextLifetime(store=stream_store),
        )


def test_inline_events_bypass_the_store(stream_store, make_bus, topic):
    bus = make_bus()
    producer = StreamProducer(stream_store, bus, topic, policy='inline')
    assert producer.policy == 'inline'
    consumer = StreamConsumer(
        stream_store, make_bus(), topic, from_seq=0, timeout=10.0,
    )
    before = len(stream_store.connector)  # LocalConnector supports len()
    producer.send({'x': 1})
    producer.close()
    (event, item), = list(consumer.events())
    assert event.inline
    assert event.key is None
    assert item == {'x': 1}
    assert len(stream_store.connector) == before  # nothing was stored


def test_consumer_catches_up_from_retention(stream_store, make_bus, topic):
    bus = make_bus(retention=5)
    bus.configure_topic(topic, retention=5)
    producer = StreamProducer(stream_store, bus, topic)
    for i in range(17):
        producer.send(i)
    producer.close()  # the end marker is event 17
    consumer = StreamConsumer(
        stream_store, make_bus(), topic, from_seq=0, timeout=10.0,
    )
    items = [int(item) for item in consumer]
    # retention 5 kept the end marker plus the last 4 items
    assert items == [13, 14, 15, 16]
    assert consumer.lost == 13
    assert consumer.delivered == 4


def test_lost_sums_across_a_cursor_failover(stream_store, make_bus, topic):
    """A cursor whose broker fails is re-opened from its position, and
    what each cursor lost adds up in the consumer's ``lost``."""
    bus = make_bus()
    bus.configure_topic(topic, retention=4)
    producer = StreamProducer(stream_store, bus, topic, policy='inline')
    producer.send_batch(list(range(10)))  # 0..5 age out
    consumer = StreamConsumer(
        stream_store, bus, topic, from_seq=0, timeout=10.0,
    )
    items = iter(consumer)
    assert [next(items) for _ in range(4)] == [6, 7, 8, 9]
    cursor = consumer._claims[topic].subscription

    def broker_died(timeout=None):
        raise NodeUnavailableError('broker gone')

    cursor.next_batch = broker_died
    producer.send_batch(list(range(10, 20)))  # 10..15 age out
    assert [next(items) for _ in range(4)] == [16, 17, 18, 19]
    assert consumer._claims[topic].subscription is not cursor
    assert consumer.lost == 6 + 6
    consumer.close()


def test_consumer_timeout_raises(stream_store, make_bus, topic):
    consumer = StreamConsumer(
        stream_store, make_bus(), topic, timeout=0.2,
    )
    with pytest.raises(TimeoutError):
        next(iter(consumer))


def test_consumer_close_stops_iteration(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic)
    producer.send(1)
    iterator = consumer.events()
    next(iterator)
    consumer.close()
    assert list(iterator) == []


def test_producer_pickle_round_trip_same_process(stream_store, make_bus, topic):
    """A pickled producer reattaches to the same store and bus."""
    bus = make_bus()
    producer = StreamProducer(stream_store, bus, topic)
    producer.send('first')
    clone = pickle.loads(pickle.dumps(producer))
    try:
        clone.send('second')
        consumer = StreamConsumer(
            stream_store, make_bus(), topic, from_seq=0, timeout=10.0,
        )
        clone.close()
        assert [str(item) for item in consumer] == ['first', 'second']
    finally:
        if clone.store is not stream_store:
            clone.store.close()


def test_lifetime_bound_consumer_refuses_to_pickle(stream_store, make_bus, topic):
    """The lifetime (and its eviction duty) cannot travel: pickling a
    bound consumer must fail loudly, not silently drop the binding."""
    consumer = StreamConsumer(
        stream_store, make_bus(), topic,
        lifetime=ContextLifetime(store=stream_store),
    )
    with pytest.raises(StoreError):
        pickle.dumps(consumer)


def test_consumer_pickle_carries_prefetch(stream_store, make_bus, topic):
    consumer = StreamConsumer(
        stream_store, make_bus(), topic, prefetch=3, timeout=0.1,
    )
    clone = pickle.loads(pickle.dumps(consumer))
    try:
        assert clone.prefetch == 3
    finally:
        if clone.store is not stream_store:
            clone.store.close()


def test_consumer_pickle_resumes_position(stream_store, make_bus, topic):
    bus = make_bus()
    producer = StreamProducer(stream_store, bus, topic)
    consumer = StreamConsumer(
        stream_store, make_bus(), topic, from_seq=0, timeout=10.0,
    )
    for i in range(6):
        producer.send(i)
    # Consume half, pickle, resume in the "other" consumer.
    iterator = consumer.events()
    got = [int(next(iterator)[1]) for _ in range(3)]
    assert got == [0, 1, 2]
    resumed = pickle.loads(pickle.dumps(consumer))
    try:
        producer.close()
        rest = [int(item) for item in resumed]
        assert rest == [3, 4, 5]
    finally:
        if resumed.store is not stream_store:
            resumed.store.close()


def test_consumer_close_evicts_delivered_unacked_keys(stream_store, make_bus, topic):
    """Closing a consumer must not strand keys: items delivered but never
    acked are evicted by default (context exit takes the same path)."""
    producer, consumer = _channel(stream_store, make_bus, topic)
    for i in range(3):
        producer.send(i)
    producer.close()
    with consumer:
        keys = [event.key for event, _ in consumer.events()]
        assert all(stream_store.exists(key) for key in keys)
    assert not any(stream_store.exists(key) for key in keys)


def test_consumer_close_can_leave_pending_stored(stream_store, make_bus, topic):
    producer, consumer = _channel(stream_store, make_bus, topic)
    producer.send('kept')
    producer.close()
    (event, _item), = list(consumer.events())
    consumer.close(evict_pending=False)
    # The caller explicitly took over eviction duty.
    assert stream_store.exists(event.key)
    stream_store.evict(event.key)


def test_consumer_pickle_clone_inherits_eviction_duty(stream_store, make_bus, topic):
    """A pickled consumer carries its delivered-but-unacked keys: the
    clone's ack (or close) evicts them, so a handoff cannot strand keys."""
    bus = make_bus()
    producer = StreamProducer(stream_store, bus, topic)
    consumer = StreamConsumer(
        stream_store, make_bus(), topic, from_seq=0, timeout=10.0,
    )
    for i in range(2):
        producer.send(i)
    producer.close()
    iterator = consumer.events()
    keys = [next(iterator)[0].key for _ in range(2)]
    clone = pickle.loads(pickle.dumps(consumer))
    try:
        assert all(stream_store.exists(key) for key in keys)
        assert clone.ack() == 2
        assert not any(stream_store.exists(key) for key in keys)
    finally:
        if clone.store is not stream_store:
            clone.store.close()


def test_ack_evicts_only_items_already_yielded(stream_store, make_bus, topic):
    """Prefetched items still in the window are not the caller's yet: an
    ack must leave their keys stored, and they must still resolve."""
    producer, consumer = _channel(stream_store, make_bus, topic, prefetch=2)
    for i in range(3):
        producer.send(i)
    producer.close()
    events = consumer.events()
    first, item = next(events)
    assert int(item) == 0
    assert consumer.ack() == 1
    assert not stream_store.exists(first.key)
    rest = list(events)
    assert all(stream_store.exists(event.key) for event, _ in rest)
    assert [int(item) for _, item in rest] == [1, 2]
    assert consumer.ack() == 2
