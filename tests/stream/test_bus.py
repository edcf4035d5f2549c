"""Event-bus guarantees, verified against both transports.

Ordering, retention-bounded catch-up, lost-event accounting, per-topic
configuration, fan-out, and (for the KV transport) a slow consumer's
retention-bounded recovery and a dead broker surfacing from ``next_batch``.
"""
from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.exceptions import NodeUnavailableError
from repro.kvserver import KVServer
from repro.stream import KVEventBus
from repro.stream import event_bus_from_url
from repro.stream.bus import LocalEventBus
from repro.stream.groups import PartitionRouter


def test_publish_assigns_monotonic_seqs(make_bus, topic):
    bus = make_bus()
    seqs = [bus.publish(topic, b'e%d' % i) for i in range(5)]
    assert seqs == [0, 1, 2, 3, 4]
    assert bus.publish_batch(topic, [b'a', b'b']) == [5, 6]


def test_subscribe_receives_in_order(make_bus, topic):
    bus = make_bus()
    sub = bus.subscribe(topic)
    payloads = [b'event-%d' % i for i in range(20)]
    bus.publish_batch(topic, payloads)
    received = []
    while len(received) < 20:
        batch = sub.next_batch(timeout=5.0)
        assert batch, 'timed out waiting for pushed events'
        received.extend(batch)
    assert [seq for seq, _ in received] == list(range(20))
    assert [bytes(data) for _, data in received] == payloads
    assert sub.lost == 0
    sub.close()


def test_subscribe_from_seq_replays_backlog(make_bus, topic):
    bus = make_bus()
    for i in range(10):
        bus.publish(topic, b'%d' % i)
    sub = bus.subscribe(topic, from_seq=4)
    received = []
    while len(received) < 6:
        batch = sub.next_batch(timeout=5.0)
        assert batch
        received.extend(batch)
    assert [seq for seq, _ in received] == [4, 5, 6, 7, 8, 9]
    sub.close()


def test_catchup_is_bounded_by_retention(make_bus, topic):
    """A subscriber beyond the ring start gets what is retained, plus a
    lost count for what aged out — never an unbounded replay."""
    bus = make_bus(retention=8)
    bus.configure_topic(topic, retention=8)
    for i in range(30):
        bus.publish(topic, b'%d' % i)
    sub = bus.subscribe(topic, from_seq=0)
    received = []
    while len(received) < 8:
        batch = sub.next_batch(timeout=5.0)
        assert batch
        received.extend(batch)
    assert [seq for seq, _ in received] == list(range(22, 30))
    assert sub.lost == 22
    stats = bus.topic_stats(topic)
    assert stats is not None
    assert stats['ring_events'] == 8
    assert stats['dropped_events'] == 22
    sub.close()


def test_retention_bounds_broker_memory(make_bus, topic):
    """With no consumer draining at all, broker-side bytes stay bounded."""
    retention = 4
    bus = make_bus(retention=retention)
    bus.configure_topic(topic, retention=retention)
    payload = b'x' * 4096
    for _ in range(100):
        bus.publish(topic, payload)
    stats = bus.topic_stats(topic)
    assert stats is not None
    assert stats['ring_events'] == retention
    assert stats['ring_bytes'] <= retention * len(payload)


def test_configure_topic_trims_immediately(make_bus, topic):
    bus = make_bus()
    for i in range(10):
        bus.publish(topic, b'%d' % i)
    bus.configure_topic(topic, retention=3)
    stats = bus.topic_stats(topic)
    assert stats is not None
    assert stats['ring_events'] == 3
    assert stats['retention'] == 3


def test_unknown_topic_stats_is_none(make_bus):
    bus = make_bus()
    assert bus.topic_stats('never-used') is None


def test_fanout_to_multiple_subscribers(make_bus, topic):
    bus = make_bus()
    subs = [bus.subscribe(topic) for _ in range(3)]
    bus.publish_batch(topic, [b'a', b'b', b'c'])
    for sub in subs:
        received = []
        while len(received) < 3:
            batch = sub.next_batch(timeout=5.0)
            assert batch
            received.extend(batch)
        assert [bytes(d) for _, d in received] == [b'a', b'b', b'c']
        sub.close()


def test_concurrent_publishers_interleave_without_loss(make_bus, topic):
    bus = make_bus()
    sub = bus.subscribe(topic)
    n_threads, per_thread = 4, 25

    def publisher(tid: int) -> None:
        for i in range(per_thread):
            bus.publish(topic, b'%d:%d' % (tid, i))

    threads = [
        threading.Thread(target=publisher, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = n_threads * per_thread
    received = []
    while len(received) < total:
        batch = sub.next_batch(timeout=5.0)
        assert batch
        received.extend(batch)
    assert [seq for seq, _ in received] == list(range(total))
    # Each publisher's own events arrive in its publication order.
    for tid in range(n_threads):
        mine = [
            int(bytes(d).split(b':')[1])
            for _, d in received
            if bytes(d).startswith(b'%d:' % tid)
        ]
        assert mine == list(range(per_thread))
    sub.close()


def test_bus_config_round_trip(make_bus, topic):
    from repro.stream.bus import bus_from_config

    bus = make_bus()
    bus.publish(topic, b'shared')
    clone = bus_from_config(bus.config())
    try:
        sub = clone.subscribe(topic, from_seq=0)
        batch = sub.next_batch(timeout=5.0)
        assert [bytes(d) for _, d in batch] == [b'shared']
        sub.close()
    finally:
        clone.close()


def test_event_bus_from_url_local():
    bus = event_bus_from_url('local://url-bus-test?retention=7')
    assert isinstance(bus, LocalEventBus)
    assert bus.retention == 7
    other = event_bus_from_url('local://url-bus-test')
    assert bus.publish('t', b'x') == 0
    sub = other.subscribe('t', from_seq=0)
    assert [bytes(d) for _, d in sub.next_batch(timeout=5.0)] == [b'x']


def test_event_bus_from_url_rejects_unknown_params():
    with pytest.raises(ValueError):
        event_bus_from_url('local://x?retentoin=5')


def test_negative_from_seq_is_rejected(make_bus, topic):
    """A cursor below zero would count events that never existed as lost."""
    bus = make_bus()
    bus.publish_batch(topic, [b'a', b'b'])
    with pytest.raises(ValueError, match='from_seq'):
        bus.subscribe(topic, from_seq=-3)
    sub = bus.subscribe(topic, from_seq=0)
    assert [seq for seq, _ in sub.next_batch(timeout=5.0)] == [0, 1]
    assert sub.lost == 0
    sub.close()


def test_close_wakes_blocked_subscriber(make_bus, topic):
    """close() from another thread must wake a next_batch(timeout=None)."""
    bus = make_bus()
    sub = bus.subscribe(topic)
    result: list = []

    def blocked_consumer() -> None:
        result.append(sub.next_batch(timeout=None))

    thread = threading.Thread(target=blocked_consumer)
    thread.start()
    time.sleep(0.2)  # let it block on the empty topic
    sub.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive(), 'close() did not wake the blocked consumer'
    assert result == [[]]


# --------------------------------------------------------------------------- #
# KV-transport-specific behavior
# --------------------------------------------------------------------------- #
def test_kv_slow_consumer_backpressure(make_bus, topic):
    """A subscriber that stops draining cannot grow broker memory: the ring
    stays retention-bounded, and the consumer recovers retained events
    (counting the rest as lost)."""
    if make_bus.transport != 'kv':
        pytest.skip('the broker-side memory bound is KV-transport behavior')
    retention = 8
    bus = make_bus(retention=retention)
    sub = bus.subscribe(topic)
    payload = b'p' * (256 * 1024)
    for _ in range(64):
        bus.publish(topic, payload)
    stats = bus.topic_stats(topic)
    assert stats is not None
    assert stats['ring_events'] <= retention
    assert stats['ring_bytes'] <= retention * len(payload)
    # The consumer still converges on the stream head.
    seen: list[int] = []
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        seen.extend(seq for seq, _ in sub.next_batch(timeout=1.0))
        if seen and seen[-1] == 63:
            break
    assert seen, 'slow consumer never recovered'
    assert seen[-1] == 63
    assert seen == sorted(seen)
    assert sub.lost + len(seen) == 64
    sub.close()


def test_kv_subscription_survives_reconnect(make_bus, topic):
    if make_bus.transport != 'kv':
        pytest.skip('pooled client connections are KV-transport behavior')
    bus = make_bus()
    # Through the one-owner router, as the stream consumers subscribe.
    sub = PartitionRouter(topic, 1, bus).subscribe(topic)
    bus.publish(topic, b'before')
    assert [bytes(d) for _, d in sub.next_batch(timeout=5.0)] == [b'before']
    # Kill every pooled connection out from under the subscription.
    for connection in bus.client._pool:
        connection.sock.shutdown(socket.SHUT_RDWR)
    bus.publish(topic, b'after')
    received = []
    deadline = time.monotonic() + 10.0
    while not received and time.monotonic() < deadline:
        received = sub.next_batch(timeout=1.0)
    assert [bytes(d) for _, d in received] == [b'after']
    # The client's stale-connection retry rode it out: no owner walk.
    assert sub.failovers == 0 and sub.lost == 0
    sub.close()


def test_raw_kv_subscription_reports_a_dead_connection(make_bus, topic):
    if make_bus.transport != 'kv':
        pytest.skip('a stopped SimKV server is KV-transport behavior')
    server = KVServer()
    server.start()
    bus = KVEventBus(server.host, server.port)
    sub = bus.subscribe(topic)
    server.stop()
    with pytest.raises(NodeUnavailableError, match='SimKV server'):
        sub.next_batch(timeout=5.0)
    sub.close()
    bus.close()


@pytest.mark.timeout(60)
def test_routed_subscription_on_a_dead_lone_broker_backs_off_then_raises(
    make_bus, topic,
):
    """A lone owner that stays down: re-subscribing from the cursor must
    reach the broker, so the router's owner walk backs off (≈ 1 s) and
    ``next_batch`` raises instead of failing over in a busy loop."""
    if make_bus.transport != 'kv':
        pytest.skip('a stopped SimKV server is KV-transport behavior')
    server = KVServer()
    server.start()
    bus = KVEventBus(server.host, server.port)
    sub = PartitionRouter(topic, 1, bus).subscribe(topic)
    server.stop()
    started = time.monotonic()
    with pytest.raises(NodeUnavailableError):
        while time.monotonic() - started < 10.0:
            sub.next_batch(timeout=None)
    assert 0.3 < time.monotonic() - started < 5.0  # backed off, then raised
    assert sub.failovers == 1
    sub.close()
    bus.close()


def test_kv_backlog_larger_than_the_queue_does_not_block_subscribe(make_bus, topic):
    """A ``from_seq`` backlog far past one frame's worth of events arrives
    in order and in full, and subscribing does not wait for it."""
    if make_bus.transport != 'kv':
        pytest.skip('the SimKV request timeout is KV-transport behavior')
    count = 3 * 64 + 8
    bus = make_bus()
    bus.publish_batch(topic, [b'%d' % i for i in range(count)])
    started = time.monotonic()
    sub = bus.subscribe(topic, from_seq=0)
    assert time.monotonic() - started < 2.0  # the request timeout is 10 s
    received = []
    while len(received) < count:
        batch = sub.next_batch(timeout=5.0)
        assert batch, 'timed out waiting for the backlog'
        received.extend(batch)
    assert [seq for seq, _ in received] == list(range(count))
    assert [bytes(data) for _, data in received] == [b'%d' % i for i in range(count)]
    assert sub.lost == 0
    sub.close()
