"""Chaos test: SIGKILL a consumer-group member mid-workload.

Three member processes split a partitioned topic through one SimKV
broker; one of them (processing slowly, never acking — the worst-case
crash state) is killed with SIGKILL partway through.  The group must
deliver **every** value at least once to the survivors, redeliver the
victim's in-flight work, and leave **zero** keys stranded on the server.
"""
from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time

import pytest

import repro
from repro.kvserver.server import KVServer

ITEMS = 32
PARTITIONS = 4
GROUP = 'chaos-group'
TOPIC = 'chaos-topic'
SESSION_TIMEOUT = 1.5


@pytest.fixture()
def kv_setup():
    """A KV server plus a redis-backed store and kv bus pointed at it."""
    from repro.stream import KVEventBus

    server = KVServer(stream_retention=256)
    host, port = server.start()
    store = repro.store_from_url(f'redis://{host}:{port}/chaos-store')
    bus = KVEventBus(host, port)
    yield server, store, bus
    bus.close()
    store.close()
    server.stop()


def _member(host, port, member, pace, ack, events_queue):
    """One group member process: construct in-process (members don't pickle),
    report every processed value, optionally ack as it goes."""
    from repro.stream import KVEventBus
    from repro.stream import GroupConsumer

    store = repro.store_from_url(f'redis://{host}:{port}/chaos-store')
    bus = KVEventBus(host, port)
    consumer = GroupConsumer(
        store, bus, TOPIC,
        group=GROUP, partitions=PARTITIONS, member=member,
        session_timeout=SESSION_TIMEOUT, timeout=30.0,
    )
    events_queue.put(('joined', member, None))
    for _event, item in consumer.events():
        events_queue.put(('val', member, int(item['i'])))
        if ack:
            consumer.ack()
        time.sleep(pace)
    events_queue.put(('done', member, consumer.stats()))
    consumer.close()
    bus.close()
    store.close()


@pytest.mark.chaos
@pytest.mark.timeout(120)
def test_sigkill_member_redelivers_with_zero_stranded_keys(kv_setup):
    server, store, bus = kv_setup
    from repro.stream import StreamProducer

    ctx = multiprocessing.get_context('spawn')
    events_queue = ctx.Queue()
    # The victim is deliberately the worst case: slow (so the kill lands
    # mid-stream) and never acking (so everything it touched must be
    # redelivered).  Survivors ack per item.
    victim = ctx.Process(
        target=_member,
        args=(server.host, server.port, 'victim', 0.25, False, events_queue),
    )
    survivors = [
        ctx.Process(
            target=_member,
            args=(server.host, server.port, name, 0.01, True, events_queue),
        )
        for name in ('survivor-a', 'survivor-b')
    ]
    victim.start()
    for child in survivors:
        child.start()

    values: dict[str, list[int]] = {}
    stats: dict[str, dict] = {}
    killed = False
    published = False
    joined: set[str] = set()
    deadline = time.monotonic() + 60
    try:
        while len(stats) < 2:
            if not published and len(joined) == 3:
                # Publish only once every member has joined and had a
                # heartbeat to converge on the final assignment — so the
                # victim deterministically owns (and slowly works) its
                # own share when the kill lands.
                time.sleep(0.8)
                producer = StreamProducer(
                    store, bus, TOPIC, partitions=PARTITIONS,
                )
                for i in range(ITEMS):
                    producer.send({'i': i})
                producer.close()
                published = True
            remaining = deadline - time.monotonic()
            assert remaining > 0, f'timed out; progress: {values}, {stats}'
            try:
                kind, member, payload = events_queue.get(timeout=remaining)
            except queue_mod.Empty:
                continue
            if kind == 'joined':
                joined.add(member)
            elif kind == 'val':
                values.setdefault(member, []).append(payload)
            else:
                stats[member] = payload
            if not killed and len(values.get('victim', [])) >= 3:
                # Give the victim one more heartbeat to report positions
                # (makes its deliveries count as redelivered, not just
                # uncommitted), then kill it dead.
                time.sleep(0.6)
                victim.kill()
                killed = True
        assert killed, 'victim finished before the kill landed'
    finally:
        victim.join(timeout=10)
        for child in survivors:
            child.join(timeout=30)
        for child in survivors + [victim]:
            if child.is_alive():
                child.kill()

    assert victim.exitcode not in (0, None)  # died by signal, not cleanly
    assert all(child.exitcode == 0 for child in survivors)

    survivor_values = values.get('survivor-a', []) + values.get('survivor-b', [])
    # At-least-once: the victim committed nothing, so every value —
    # including everything the victim processed before dying — reaches a
    # survivor.
    assert sorted(set(survivor_values)) == list(range(ITEMS))
    assert set(values.get('victim', [])) <= set(survivor_values)
    # Per-member accounting is exact: delivered == values processed.
    total_redelivered = 0
    for name in ('survivor-a', 'survivor-b'):
        assert stats[name]['delivered'] == len(values.get(name, []))
        assert stats[name]['lost'] == 0
        total_redelivered += stats[name]['redelivered']
    # The victim heartbeated its positions before dying, so at least its
    # watermarked deliveries are counted as redeliveries by survivors.
    assert total_redelivered >= 1
    # Survivors acked everything (including the redelivered work), so the
    # store holds zero stranded keys.
    assert len(server) == 0
