"""Subscriber reconnect-resume: a broker restart must not lose the gap.

The satellite scenario for broker failover: a consumer's ``FETCH`` fails
when its broker goes down; the broker comes back on the *same* port (here:
a fresh server whose ring is repopulated at the original sequence numbers,
exactly what ``REPL_PUBLISH`` mirroring produces); the consumer's owner
walk rides out the restart, opens a cursor at the old position, and its
first ``FETCH`` delivers the missed events exactly once.
"""
from __future__ import annotations

import threading
import time

import pytest

from repro.kvserver.client import KVClient
from repro.kvserver.server import KVServer
from repro.stream import StreamConsumer
from repro.stream import StreamProducer

TOPIC = 'reconnect-topic'


@pytest.mark.timeout(120)
def test_restarted_broker_backfills_cursor_gap_exactly_once(stream_store):
    from repro.stream.kv import KVEventBus

    server = KVServer()
    host, port = server.start()

    bus = KVEventBus(host, port)
    producer = StreamProducer(stream_store, bus, TOPIC, policy='inline')
    consumer = StreamConsumer(stream_store, bus, TOPIC, from_seq=0, timeout=30.0)
    items = [f'event-{i}' for i in range(10)]
    for item in items[:5]:
        producer.send(item)
    events = consumer.events()
    first = [next(events) for _ in range(5)]
    assert [event.seq for event, _ in first] == [0, 1, 2, 3, 4]

    # Published while the consumer is not reading, so its cursor stays
    # at 5; the broker holds the gap when it dies.
    for item in items[5:]:
        producer.send(item)
    with KVClient(host, port) as client:
        gap_events = [
            (seq, bytes(data))
            for seq, data in client.fetch_events(TOPIC, since=5)['events']
        ]
    assert [seq for seq, _ in gap_events] == [5, 6, 7, 8, 9]

    # The broker dies and restarts on the same port while the consumer
    # reads.  The replacement's ring is repopulated at the ORIGINAL
    # sequence numbers — the same explicit-seq REPL_PUBLISH path replicas
    # use to mirror a primary.
    cursor = consumer._claims[TOPIC].subscription
    server.stop()
    restarted = KVServer(host, port)

    def restart():
        time.sleep(0.2)
        restarted.start()
        with KVClient(host, port) as mirror:
            mirror.repl_publish(TOPIC, gap_events)

    thread = threading.Thread(target=restart)
    thread.start()
    try:
        # The cursor's FETCH fails, the owner walk backs off until the
        # broker is back and opens a cursor at 5, whose FETCH returns 5..9.
        gap = [next(events) for _ in range(5)]
        assert consumer._claims[TOPIC].subscription is not cursor
        assert [event.seq for event, _ in gap] == [5, 6, 7, 8, 9]
        assert [item for _, item in gap] == items[5:]
        assert consumer.lost == 0
        # Exactly once: no event delivered twice across the restart.
        all_seqs = [event.seq for event, _ in first + gap]
        assert len(all_seqs) == len(set(all_seqs)) == 10
        assert consumer.delivered == 10
    finally:
        thread.join()
        consumer.close()
        bus.close()
        restarted.stop()
