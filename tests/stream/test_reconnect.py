"""Subscriber reconnect-resume: a broker restart must not lose the gap.

The satellite scenario for broker failover: a subscriber's ``FETCH``
fails when its broker goes down; the broker comes back on the *same*
port (here: a fresh server process whose ring is repopulated at the
original sequence numbers, exactly what ``REPL_PUBLISH`` mirroring
produces); the one-owner router's walk opens a cursor at the old
position and its first ``FETCH`` delivers the missed events exactly once.
"""
from __future__ import annotations

import time

import pytest

from repro.kvserver.client import KVClient
from repro.kvserver.server import KVServer
from repro.stream.groups import PartitionRouter

TOPIC = 'reconnect-topic'


def _collect(subscription, count, deadline_s=30.0):
    """Drain ``count`` events from ``subscription`` (bounded wait)."""
    deadline = time.monotonic() + deadline_s
    events = []
    while len(events) < count:
        assert time.monotonic() < deadline, (
            f'only {len(events)}/{count} events before deadline'
        )
        events.extend(subscription.next_batch(timeout=1.0))
    return events


@pytest.mark.timeout(120)
def test_restarted_broker_backfills_cursor_gap_exactly_once():
    from repro.stream.kv import KVEventBus

    server = KVServer()
    host, port = server.start()

    bus = KVEventBus(host, port)
    payloads = [f'event-{i}'.encode() for i in range(10)]
    for payload in payloads[:5]:
        bus.publish(TOPIC, payload)

    subscription = PartitionRouter(TOPIC, 1, bus).subscribe(TOPIC, from_seq=0)
    first = _collect(subscription, 5)
    assert [seq for seq, _ in first] == [0, 1, 2, 3, 4]
    assert subscription.position == 5

    # The broker dies and restarts on the same port.  Its replacement's
    # ring is repopulated at the ORIGINAL sequence numbers — the same
    # explicit-seq REPL_PUBLISH path replicas use to mirror a primary.
    server.stop()
    restarted = KVServer(host, port)
    restarted.start()
    try:
        mirror = KVClient(host, port)
        mirror.repl_publish(
            TOPIC,
            [(seq, payloads[seq]) for seq in range(5, 10)],
        )
        mirror.close()

        # The subscription reports the dead connection, the owner walk
        # re-subscribes, and the new cursor's first FETCH returns 5..9.
        gap = _collect(subscription, 5)
        assert [seq for seq, _ in gap] == [5, 6, 7, 8, 9]
        assert [bytes(data) for _seq, data in gap] == payloads[5:]
        assert subscription.position == 10
        assert subscription.lost == 0
        # Exactly once: no event delivered twice across the restart.
        all_seqs = [seq for seq, _ in first + gap]
        assert len(all_seqs) == len(set(all_seqs)) == 10
    finally:
        subscription.close()
        bus.close()
        restarted.stop()
