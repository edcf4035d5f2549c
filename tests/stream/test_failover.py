"""Broker failover: replicated publish, subscriber failover, coordinator HA.

All in-process (threaded servers, real sockets) — the subprocess version
with SIGKILL lives in ``test_broker_chaos.py`` under the ``chaos`` marker.
"""
from __future__ import annotations

import os
import sys
import threading
import time
import types

import pytest

import repro
from repro.serialize import serialize
from repro.exceptions import ConnectorError
from repro.exceptions import GroupMembershipError
from repro.exceptions import NodeUnavailableError
from repro.exceptions import StreamGroupError
from repro.kvserver.client import KVClient
from repro.kvserver.server import KVServer
from repro.stream import GroupConsumer
from repro.stream import StreamEvent
from repro.stream import StreamProducer
from repro.stream.groups import GroupCoordinator
from repro.stream.groups import PartitionRouter
from repro.stream.groups import partition_for

_STORE_COUNTER = iter(range(10**6))

#: Partition key the subscriber-failover test publishes under.
KEY = 'failover-key'


@pytest.fixture()
def fleet():
    """Three live brokers; tests may stop some — teardown tolerates that."""
    servers = [KVServer() for _ in range(3)]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        try:
            server.stop()
        except Exception:  # noqa: BLE001 - already stopped by the test
            pass


@pytest.fixture()
def store():
    store = repro.store_from_url(
        f'local:///failover-store-{next(_STORE_COUNTER)}',
    )
    yield store
    store.close(clear=True)


def _urls(servers):
    return [f'kv://127.0.0.1:{s.port}' for s in servers]


def _server_of(servers, node_id):
    return next(s for s in servers if str(s.port) in node_id)


# --------------------------------------------------------------------------- #
# Typed errors and argument validation
# --------------------------------------------------------------------------- #
def test_group_membership_error_is_connector_error():
    # Dual parentage: group-layer callers catch StreamGroupError, failover
    # layers catch ConnectorError — the more specific class must come
    # first in except chains, which subclassing makes possible.
    assert issubclass(GroupMembershipError, StreamGroupError)
    assert issubclass(GroupMembershipError, ConnectorError)


def test_producer_requires_partitions_for_replicas(store):
    with pytest.raises(ValueError, match='partitioned'):
        StreamProducer(store, 'local://b', 'topic', replicas=2)


def test_router_validates_replicas(fleet):
    with pytest.raises(ValueError):
        PartitionRouter('t', 2, _urls(fleet), replicas=0)
    # Replication factor is clamped to the fleet size.
    router = PartitionRouter('t', 2, _urls(fleet), replicas=9)
    assert router.replicas == 3
    router.close()


# --------------------------------------------------------------------------- #
# Replicated publish
# --------------------------------------------------------------------------- #
def test_publish_mirrors_to_replica_brokers(fleet):
    router = PartitionRouter('mirrored', 2, _urls(fleet), replicas=2)
    try:
        topic = router.topics[0]
        seqs = router.publish_batch(topic, [b'a', b'b', b'c'])
        assert seqs == [0, 1, 2]
        owners = router.owners(topic)
        assert len(owners) == 2
        for node in owners:
            client = KVClient('127.0.0.1', int(node.rsplit(':', 1)[1]))
            fetched = client.fetch_events(topic, since=0)
            assert [
                (int(s), bytes(d)) for s, d in fetched['events']
            ] == [(0, b'a'), (1, b'b'), (2, b'c')]
            client.close()
    finally:
        router.close()


def test_publish_fails_over_when_primary_dies(fleet):
    router = PartitionRouter('po-topic', 2, _urls(fleet), replicas=2)
    try:
        topic = router.topics[0]
        router.publish_batch(topic, [b'before'])
        primary = router.owners(topic)[0]
        _server_of(fleet, primary).stop()
        # The publish walks past the dead primary onto the replica and
        # continues the primary's numbering (the replica holds the mirror).
        seqs = router.publish_batch(topic, [b'after'])
        assert seqs == [1]
        assert router.membership.state_of(primary) == 'dead'
    finally:
        router.close()


def test_a_single_owner_publish_calls_nothing_in_cluster_or_faults(fleet):
    roots = tuple(
        os.path.dirname(package.__file__) + os.sep
        for package in (repro.cluster, repro.faults)
    )
    calls: list[str] = []

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == 'call' and code.co_filename.startswith(roots):
            calls.append(f'{code.co_filename}:{code.co_name}')

    def publishes(replicas: int) -> list[str]:
        router = PartitionRouter(f'solo-{replicas}', 4, _urls(fleet), replicas=replicas)
        try:
            for topic in router.topics:  # warm-up: each key's owners
                router.publish_batch(topic, [b'warm'])
            calls.clear()
            sys.setprofile(profile)
            try:
                for topic in router.topics:
                    assert len(router.publish_batch(topic, [b'a', b'b'])) == 2
            finally:
                sys.setprofile(None)
            return list(calls)
        finally:
            router.close()

    assert publishes(1) == []
    # The counter sees the health record and the mirror of a replicated one.
    assert publishes(2)


def test_a_single_owner_publish_rides_out_a_broker_restart():
    server = KVServer()
    server.start()
    host, port = server.host, server.port
    router = PartitionRouter('restart', 1, [f'kv://{host}:{port}'])
    restarted = KVServer(host, port)
    try:
        topic = router.topics[0]
        assert router.publish_batch(topic, [b'before']) == [0]
        server.stop()
        thread = threading.Timer(0.3, restarted.start)
        thread.start()
        # The first walk fails at once; the backoff outlasts the restart.
        # The restarted broker is empty, so numbering starts over.
        assert router.publish_batch(topic, [b'after']) == [0]
        thread.join()
    finally:
        router.close()
        restarted.stop()


# --------------------------------------------------------------------------- #
# Subscriber failover
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_subscription_fails_over_and_resumes_from_cursor(fleet, store, monkeypatch):
    backoff_sleeps = []

    def counting_sleep(seconds):
        backoff_sleeps.append(seconds)
        time.sleep(seconds)

    monkeypatch.setattr(
        'repro.faults.retry.time', types.SimpleNamespace(sleep=counting_sleep),
    )
    urls = _urls(fleet)
    router = PartitionRouter('sub-topic', 2, urls, replicas=2)
    topic = router.topics[partition_for(KEY, 2)]
    victim = router.owners(topic)[0]
    # A group whose acting coordinator is not the victim, so the member
    # keeps its claims and only the partition's cursor fails over.
    group = next(
        name for name in (f'sub-group-{i}' for i in range(1000))
        if GroupCoordinator(name, router).designated_broker != victim
    )
    router.close()
    producer = StreamProducer(
        store, urls, 'sub-topic', policy='inline', partitions=2, replicas=2,
    )
    consumer = GroupConsumer(
        store, urls, 'sub-topic',
        group=group, partitions=2, replicas=2, timeout=30.0,
    )
    try:
        for i in range(3):
            producer.send(f'e{i}', partition_key=KEY)
        events = consumer.events()
        got = [next(events) for _ in range(3)]
        claim = consumer._claims[topic]
        assert claim.broker == victim

        _server_of(fleet, victim).stop()
        stopped = time.monotonic()
        backoff_sleeps.clear()
        for i in range(3, 5):
            producer.send(f'e{i}', partition_key=KEY)
        got += [next(events) for _ in range(2)]

        assert [event.seq for event, _ in got] == [0, 1, 2, 3, 4]
        assert [item for _, item in got] == [f'e{i}' for i in range(5)]
        # With a live replica the owner walk is the only reconnect loop and
        # it never backs off: the dead owner costs one refused connect.
        assert backoff_sleeps == []
        assert time.monotonic() - stopped < 0.5
        assert claim.broker != victim
        assert consumer._claims[topic] is claim  # no rejoin: a cursor hop
        assert consumer.lost == 0
    finally:
        consumer.close()
        producer.close(end=False)


# --------------------------------------------------------------------------- #
# Coordinator failover
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(180)
def test_coordinator_failover_preserves_commits_and_coverage(fleet, store):
    urls = _urls(fleet)
    producer = StreamProducer(store, urls, 'ha-docs', partitions=4, replicas=2)
    producer.send_batch(list(range(10)))

    consumer = GroupConsumer(
        store, urls, 'ha-docs',
        group='ha-group', partitions=4, replicas=2, timeout=20.0,
    )
    got = []
    items = iter(consumer)
    for _ in range(5):
        got.append(int(next(items)))
    consumer.ack()
    committed_before = consumer.coordinator.fetch(consumer.router.topics)

    # Kill the acting coordinator broker: its replica holds the mirrored
    # membership and offsets, so the group continues without losing acks.
    victim = consumer.coordinator.acting_broker
    _server_of(fleet, victim).stop()

    late = StreamProducer(store, urls, 'ha-docs', partitions=4, replicas=2)
    late.send_batch(list(range(10, 20)))
    late.close(end=True)
    producer.close(end=False)

    for proxy in items:
        got.append(int(proxy))
        consumer.ack()

    assert sorted(set(got)) == list(range(20))
    assert consumer.lost == 0
    assert consumer.coordinator.failovers >= 1
    assert consumer.coordinator.acting_broker != victim
    # Offsets committed before the failover survived onto the replica.
    after = consumer.coordinator.fetch(consumer.router.topics)
    for topic, entry in committed_before.items():
        assert after[topic]['committed'] >= entry['committed']
    consumer.close()


@pytest.mark.timeout(120)
def test_coordinator_calls_raise_when_every_owner_is_dead(fleet):
    router = PartitionRouter('dead-topic', 2, _urls(fleet), replicas=2)
    try:
        coordinator = GroupCoordinator('doomed', router)
        for server in fleet:
            server.stop()
        with pytest.raises(NodeUnavailableError):
            coordinator.join('m1', 5.0)
    finally:
        router.close()


# --------------------------------------------------------------------------- #
# The replication loss window
# --------------------------------------------------------------------------- #
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason='the replica numbers past a mirror that has not landed yet: two '
    'producers on one partition, then a failover, lose the first '
    "producer's acknowledged events",
)
@pytest.mark.timeout(120)
def test_failover_delivers_every_event_a_producer_was_told_succeeded(store):
    servers = [KVServer(), KVServer()]
    for server in servers:
        server.start()
    urls = _urls(servers)
    first = PartitionRouter('window', 1, urls, replicas=2)
    second = PartitionRouter('window', 1, urls, replicas=2)
    topic = first.topics[0]
    primary, replica = first.owners(topic)
    events = [StreamEvent(payload=serialize(i)).encode() for i in range(8)]

    # The first producer's mirror to the replica waits at a gate.
    mirror = first.client_of(replica).repl_publish
    waiting, gate = threading.Event(), threading.Event()

    def gated_mirror(*args):
        waiting.set()
        gate.wait(30)
        return mirror(*args)

    first.client_of(replica).repl_publish = gated_mirror
    told = []
    publisher = threading.Thread(
        target=lambda: told.extend(first.publish_batch(topic, events[:4])),
    )
    consumer = None
    try:
        publisher.start()
        assert waiting.wait(30)  # seqs 0-3 are on the primary only
        assert second.publish_batch(topic, events[4:]) == [4, 5, 6, 7]
        _server_of(servers, primary).stop()
        consumer = GroupConsumer(
            store, urls, 'window', group='g', partitions=1, replicas=2,
            timeout=30.0,
        )
        delivered = consumer.events()
        seqs = [next(delivered)[0].seq for _ in range(4)]  # read off the replica
        gate.set()
        publisher.join(30)
        assert told == [0, 1, 2, 3]
        second.publish(topic, StreamEvent(end=True).encode())
        seqs += [event.seq for event, _ in delivered]
        assert sorted(seqs) == list(range(8))
        assert consumer.lost == 0
    finally:
        gate.set()
        publisher.join(30)
        if consumer is not None:
            consumer.close()
        first.close()
        second.close()
        for server in servers:
            server.stop()
