"""Consumer groups: partitioning, coordination, rebalance, redelivery.

The unit layer checks the coordinator-free contracts (partition naming,
stable hashing, deterministic assignment, ring placement); the
integration layer runs real group members over both transports through
splits, joins, member death, and crash-mid-ack — asserting the
at-least-once guarantee end to end: full coverage, exact redelivery
accounting, and zero stranded keys.
"""
from __future__ import annotations

import hashlib
import pickle
import threading
import time

import pytest

import repro
from repro.exceptions import GroupMembershipError
from repro.exceptions import NodeUnavailableError
from repro.exceptions import StoreError
from repro.exceptions import StreamGroupError
from repro.kvserver import KVServer
from repro.stream import LocalEventBus
from repro.stream import StreamProducer
from repro.stream import broker_id
from repro.stream import partition_topics
from repro.stream.events import StreamEvent
from repro.stream.groups import GroupConsumer
from repro.stream.groups import GroupCoordinator
from repro.stream.groups import PartitionRouter
from repro.stream.groups import assign_partitions
from repro.stream.groups import partition_for

_STORE_COUNTER = iter(range(10**6))


@pytest.fixture()
def group_store():
    """A local store per test, cleared on teardown."""
    store = repro.store_from_url(
        f'local:///group-test-store-{next(_STORE_COUNTER)}',
    )
    yield store
    store.close(clear=True)


# --------------------------------------------------------------------------- #
# Partitioning primitives
# --------------------------------------------------------------------------- #
def test_partition_topics_single_keeps_plain_name():
    assert partition_topics('jobs', 1) == ['jobs']
    assert partition_topics('jobs', 3) == ['jobs.p0', 'jobs.p1', 'jobs.p2']
    with pytest.raises(ValueError):
        partition_topics('jobs', 0)


def test_partition_for_is_stable_blake2b():
    # The contract is the blake2b scheme itself (never randomized hash()):
    # every process must compute the same index for the same key.
    digest = hashlib.blake2b(b'alpha', digest_size=8).digest()
    expected = int.from_bytes(digest, 'big') % 7
    assert partition_for('alpha', 7) == expected
    assert partition_for('alpha', 7) == partition_for('alpha', 7)
    assert all(0 <= partition_for(f'k{i}', 5) < 5 for i in range(100))
    with pytest.raises(ValueError):
        partition_for('alpha', 0)


def test_assign_partitions_round_robin_deterministic():
    topics = partition_topics('t', 4)
    # Member order must not matter: sorted ids drive the round-robin.
    assignment = assign_partitions(['b', 'a'], topics)
    assert assignment == {'a': ['t.p0', 't.p2'], 'b': ['t.p1', 't.p3']}
    assert assign_partitions(['a', 'b'], topics) == assignment
    # More members than partitions: the extras idle with empty claims.
    wide = assign_partitions(['a', 'b', 'c', 'd', 'e'], topics)
    assert wide['e'] == []
    assert sorted(t for claims in wide.values() for t in claims) == sorted(topics)
    assert assign_partitions([], topics) == {}


# --------------------------------------------------------------------------- #
# Partition router
# --------------------------------------------------------------------------- #
def test_partition_router_placement_is_deterministic():
    buses = [LocalEventBus(f'router-bus-{i}') for i in range(3)]
    router_a = PartitionRouter('t', 8, buses)
    router_b = PartitionRouter('t', 8, list(reversed(buses)))
    for topic in router_a.topics:
        assert broker_id(router_a.bus_for(topic)) == broker_id(
            router_b.bus_for(topic),
        )
    assert broker_id(router_a.designated('group:g')) == broker_id(
        router_b.designated('group:g'),
    )
    # Every partition landed on one of the fleet's brokers.
    ids = {broker_id(bus) for bus in buses}
    assert {broker_id(router_a.bus_for(t)) for t in router_a.topics} <= ids


def test_partition_router_config_round_trip():
    buses = [LocalEventBus(f'router-rt-{i}') for i in range(2)]
    router = PartitionRouter('t', 4, buses)
    rebuilt = PartitionRouter.from_config(
        pickle.loads(pickle.dumps(router.config())),
    )
    assert rebuilt.topic == 't'
    assert rebuilt.partitions == 4
    for topic in router.topics:
        assert broker_id(rebuilt.bus_for(topic)) == broker_id(
            router.bus_for(topic),
        )
    rebuilt.close()


def test_partition_router_rejects_duplicate_brokers():
    bus = LocalEventBus('router-dup')
    with pytest.raises(ValueError):
        PartitionRouter('t', 2, [bus, LocalEventBus('router-dup')])


# --------------------------------------------------------------------------- #
# Coordinator (both transports)
# --------------------------------------------------------------------------- #
def test_coordinator_membership_offsets_and_ends(make_bus, topic):
    router = PartitionRouter(topic, 2, make_bus())
    coordinator = GroupCoordinator(f'g-{topic}', router)
    view = coordinator.join('m1', session_timeout=5.0)
    assert 'm1' in view['members']
    generation = view['generation']
    view = coordinator.join('m2', session_timeout=5.0)
    assert view['generation'] > generation
    assert view['members'] == ['m1', 'm2']
    ptopic = router.topics[0]
    coordinator.heartbeat('m1', {ptopic: 4}, {ptopic: 9})
    coordinator.commit('m1', {ptopic: 3}, {ptopic: 4})
    # Commits are monotonic: a stale, lower offset never rolls back.
    coordinator.commit('m1', {ptopic: 1}, {ptopic: 4})
    fetched = coordinator.fetch([ptopic])[ptopic]
    assert fetched['committed'] == 3
    assert fetched['watermark'] == 4
    assert fetched['end'] == 9
    assert fetched['end_member'] == 'm1'
    stats = coordinator.stats()
    assert stats['committed'][ptopic] == 3
    assert stats['ends'][ptopic] == 9
    coordinator.leave('m2', {})
    assert coordinator.stats()['members'] == ['m1']


def test_coordinator_expires_silent_members(make_bus, topic):
    router = PartitionRouter(topic, 2, make_bus())
    coordinator = GroupCoordinator(f'g-{topic}', router)
    coordinator.join('quiet', session_timeout=0.2)
    coordinator.join('alive', session_timeout=5.0)
    time.sleep(0.35)
    view = coordinator.heartbeat('alive', {})
    assert view['members'] == ['alive']
    with pytest.raises(GroupMembershipError):
        coordinator.heartbeat('quiet', {})
    # Both transports count the expiry.
    assert coordinator.stats()['expired_members'] == 1


class _DelegatingBus:
    """A bus wrapper that forwards everything it does not intercept."""

    def __init__(self, inner):
        self._inner = inner
        self.published = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def publish_batch(self, topic, payloads):
        self.published += len(payloads)
        return self._inner.publish_batch(topic, payloads)


def test_coordinator_asks_for_the_group_commands_not_for_a_class(make_bus, topic):
    # A wrapper (or subclass) is neither LocalEventBus nor KVEventBus by
    # name; what matters is that the broker's group commands are reachable.
    router = PartitionRouter(topic, 2, _DelegatingBus(make_bus()))
    coordinator = GroupCoordinator(f'g-{topic}', router)
    assert coordinator.join('m1', 5.0)['members'] == ['m1']
    ptopic = router.topics[1]
    coordinator.commit('m1', {ptopic: 6}, {ptopic: 7})
    assert coordinator.fetch([ptopic])[ptopic]['committed'] == 6
    # Without a failover the acting broker is the designated one.
    assert coordinator.acting_broker == coordinator.designated_broker
    assert coordinator.failovers == 0


def test_coordinator_rejects_a_bus_without_group_commands(topic):
    class Mute:
        def config(self):
            return {'scheme': 'mute', 'bus_id': 'm'}

    with pytest.raises(StreamGroupError):
        GroupCoordinator('g', PartitionRouter(topic, 1, Mute()))


@pytest.mark.timeout(60)
def test_lone_dead_coordinator_is_retried_then_raises_and_close_stays_bounded(
    group_store,
):
    # replicas=1 is the replicated path with one owner: a dead broker is
    # ridden out under the shared reconnect policy (~1 s), then surfaces.
    server = KVServer()
    server.start()
    consumer = GroupConsumer(
        group_store, f'kv://{server.host}:{server.port}', 'lonely',
        group='g', partitions=2, timeout=5.0,
    )
    server.stop()
    started = time.monotonic()
    with pytest.raises(NodeUnavailableError):
        consumer.coordinator.stats()
    assert time.monotonic() - started > 0.3   # it did back off and retry
    started = time.monotonic()
    consumer.close()
    assert time.monotonic() - started < 15.0


# --------------------------------------------------------------------------- #
# Group consumers end to end
# --------------------------------------------------------------------------- #
def _drain(consumer, sink, errors):
    """Consume to completion, resolving and acking every item."""
    try:
        for event, item in consumer.events():
            sink.append((event.key, int(item['i'])))
            consumer.ack()
    except BaseException as e:  # noqa: BLE001 - surfaced in the main thread
        errors.append(e)


def _drain_all(consumers, sinks):
    errors: list[BaseException] = []
    threads = [
        threading.Thread(target=_drain, args=(consumer, sink, errors))
        for consumer, sink in zip(consumers, sinks)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def _group_consumer(group_store, bus, topic, **kwargs):
    kwargs.setdefault('timeout', 15.0)
    return GroupConsumer(group_store, bus, topic, **kwargs)


def test_two_members_split_partitions_exactly_once(group_store, make_bus, topic):
    bus = make_bus()
    group = f'g-{topic}'
    a = _group_consumer(
        group_store, bus, topic, group=group, partitions=4, member='a',
    )
    b = _group_consumer(
        group_store, make_bus(), topic, group=group, partitions=4, member='b',
    )
    try:
        # Converge both members onto the two-member generation before load.
        a.refresh()
        b.refresh()
        assert sorted(a.assignment + b.assignment) == partition_topics(topic, 4)
        assert not set(a.assignment) & set(b.assignment)

        producer = StreamProducer(group_store, make_bus(), topic, partitions=4)
        for i in range(12):
            producer.send({'i': i}, partition_key=str(i))
        producer.close()

        sink_a: list = []
        sink_b: list = []
        _drain_all([a, b], [sink_a, sink_b])
        values_a = [value for _key, value in sink_a]
        values_b = [value for _key, value in sink_b]
        # Exactly-once in the steady state: full coverage, no overlap.
        assert sorted(values_a + values_b) == list(range(12))
        assert a.redelivered == b.redelivered == 0
        assert a.lost == b.lost == 0
        # Every delivered key was acked away — nothing strands.
        assert all(
            not group_store.exists(key) for key, _value in sink_a + sink_b
        )
    finally:
        a.close()
        b.close()


def test_rebalance_on_join_hands_off_without_loss(group_store, make_bus, topic):
    bus = make_bus()
    group = f'g-{topic}'
    a = _group_consumer(
        group_store, bus, topic, group=group, partitions=4, member='a',
    )
    b = None
    try:
        a.refresh()
        assert a.assignment == partition_topics(topic, 4)
        producer = StreamProducer(group_store, make_bus(), topic, partitions=4)
        for i in range(20):
            producer.send({'i': i})
        producer.close()

        # The solo member works part of the stream, acking as it goes...
        sink_a: list = []
        events_a = a.events()
        for _ in range(6):
            event, item = next(events_a)
            sink_a.append((event.key, int(item['i'])))
            a.ack()
        # ...then a second member joins and takes half the partitions.
        b = _group_consumer(
            group_store, make_bus(), topic, group=group, partitions=4,
            member='b',
        )
        a.refresh()
        b.refresh()
        assert len(a.assignment) == len(b.assignment) == 2

        errors: list = []
        sink_b: list = []

        def finish_a():
            try:
                for event, item in events_a:
                    sink_a.append((event.key, int(item['i'])))
                    a.ack()
            except BaseException as e:  # noqa: BLE001
                errors.append(e)

        drain_a = threading.Thread(target=finish_a)
        drain_b = threading.Thread(target=_drain, args=(b, sink_b, errors))
        drain_a.start()
        drain_b.start()
        drain_a.join(timeout=30)
        drain_b.join(timeout=30)
        assert not drain_a.is_alive() and not drain_b.is_alive()
        assert not errors

        values = [v for _k, v in sink_a] + [v for _k, v in sink_b]
        # Everything acked before the handoff stays acked; nothing is
        # dropped or double-delivered across the rebalance.
        assert sorted(values) == list(range(20))
        assert a.redelivered == b.redelivered == 0
        assert all(not group_store.exists(key) for key, _v in sink_a + sink_b)
    finally:
        a.close()
        if b is not None:
            b.close()


def _crash(consumer):
    """Simulate a hard crash: stop heartbeating, leave everything dirty.

    Nothing is acked, committed, or unsubscribed — exactly the state a
    SIGKILL leaves behind; only the coordinator's lease expiry reveals it.
    """
    consumer._closed.set()
    consumer._heartbeat_thread.join(timeout=5)


def test_member_death_redelivers_unacked(group_store, make_bus, topic):
    bus = make_bus()
    group = f'g-{topic}'
    victim = _group_consumer(
        group_store, bus, topic, group=group, partitions=2, member='victim',
        session_timeout=0.6,
    )
    survivor = None
    try:
        victim.refresh()
        producer = StreamProducer(group_store, make_bus(), topic, partitions=2)
        for i in range(8):
            producer.send({'i': i})
        producer.close()

        victim_values = []
        events = victim.events()
        for _ in range(3):
            _event, item = next(events)
            victim_values.append(int(item['i']))
        # Report delivered positions (the watermark), then crash un-acked.
        victim.refresh()
        _crash(victim)
        time.sleep(0.9)  # let the lease expire at the coordinator

        survivor = _group_consumer(
            group_store, make_bus(), topic, group=group, partitions=2,
            member='survivor', session_timeout=5.0,
        )
        sink: list = []
        errors: list = []
        _drain_all([survivor], [sink])
        assert not errors
        values = [value for _key, value in sink]
        # The survivor replays the whole stream (nothing was committed)
        # and counts exactly the victim's delivered events as redelivered.
        assert sorted(values) == list(range(8))
        assert survivor.redelivered == len(victim_values)
        assert survivor.deduplicated == 0
        assert set(victim_values) <= set(values)
        assert all(not group_store.exists(key) for key, _value in sink)
    finally:
        victim.close()
        if survivor is not None:
            survivor.close()


def test_crash_mid_ack_deduplicates_evicted_keys(group_store, make_bus, topic):
    """A crash between evict and commit must not re-deliver dead proxies.

    The victim evicted its delivered keys but died before the offset
    commit landed — the committed-behind state ``ack()``'s ordering makes
    possible.  The successor recognizes the redelivered events' missing
    keys, counts them ``deduplicated``, and commits past them.
    """
    bus = make_bus()
    group = f'g-{topic}'
    victim = _group_consumer(
        group_store, bus, topic, group=group, partitions=1, member='victim',
        session_timeout=0.6,
    )
    successor = None
    try:
        victim.refresh()
        producer = StreamProducer(group_store, make_bus(), topic, partitions=1)
        for i in range(6):
            producer.send({'i': i})
        producer.close()

        events = victim.events()
        done = [int(next(events)[1]['i']) for _ in range(3)]
        assert done == [0, 1, 2]
        victim.refresh()
        # The evict half of ack() completed; the commit never did.
        keys = [
            key
            for claim in victim._claims.values()
            for _seq, key in claim.unacked
        ]
        assert len(keys) == 3
        group_store.evict_batch(keys)
        _crash(victim)
        time.sleep(0.9)

        successor = _group_consumer(
            group_store, make_bus(), topic, group=group, partitions=1,
            member='successor', session_timeout=5.0,
        )
        sink: list = []
        _drain_all([successor], [sink])
        assert [value for _key, value in sink] == [3, 4, 5]
        assert successor.deduplicated == 3
        assert successor.redelivered == 0
        assert successor.delivered == 3
    finally:
        victim.close()
        if successor is not None:
            successor.close()


def test_group_consumer_refuses_to_pickle(group_store, make_bus, topic):
    consumer = _group_consumer(
        group_store, make_bus(), topic, group=f'g-{topic}', partitions=2,
    )
    try:
        with pytest.raises(StoreError, match='live'):
            pickle.dumps(consumer)
    finally:
        consumer.close()


def test_group_counts_events_lost_to_retention(make_bus, topic):
    """Events that aged out of a partition's ring before anyone claimed it
    are counted on the member and in the ``stream.group.lost`` metric."""
    store = repro.store_from_url(
        f'local:///group-lost-store-{next(_STORE_COUNTER)}?metrics=1',
    )
    try:
        bus = make_bus(retention=5)
        bus.configure_topic(topic, retention=5)
        producer = StreamProducer(store, bus, topic, partitions=1)
        for i in range(12):
            producer.send({'i': i})
        producer.close()  # the end marker is event 12: the ring keeps 8..12
        consumer = _group_consumer(
            store, make_bus(), topic, group=f'g-{topic}', partitions=1,
        )
        sink: list = []
        _drain_all([consumer], [sink])
        assert [value for _key, value in sink] == [8, 9, 10, 11]
        assert consumer.lost == 8
        consumer.close()
        assert store.metrics_summary()['stream.group.lost']['count'] == 8
    finally:
        store.close(clear=True)


# --------------------------------------------------------------------------- #
# Partitioned producers
# --------------------------------------------------------------------------- #
def _partition_events(bus, topic, partitions):
    """Decode whatever each partition topic currently retains."""
    per_topic = {}
    for ptopic in partition_topics(topic, partitions):
        subscription = bus.subscribe(ptopic, from_seq=0)
        events = []
        batch = subscription.next_batch(timeout=1.0)
        while batch:
            events.extend(
                StreamEvent.decode(data, seq=seq) for seq, data in batch
            )
            batch = subscription.next_batch(timeout=0.2)
        subscription.close()
        per_topic[ptopic] = events
    return per_topic


def test_partitioned_producer_routes_stable_keys(group_store, make_bus, topic):
    bus = make_bus()
    producer = StreamProducer(group_store, bus, topic, partitions=3)
    for i in range(9):
        producer.send(
            {'i': i},
            metadata={'pkey': f'key-{i % 3}'},
            partition_key=f'key-{i % 3}',
        )
    producer.close()
    per_topic = _partition_events(make_bus(), topic, 3)
    names = partition_topics(topic, 3)
    seen = 0
    # Equal keys land on equal partitions; close() ended every partition.
    for ptopic, events in per_topic.items():
        for event in events:
            if event.end:
                continue
            seen += 1
            expected = names[partition_for(event.metadata['pkey'], 3)]
            assert ptopic == expected
        assert events[-1].end
    assert seen == 9


def test_partitioned_producer_round_robin_and_batch(group_store, make_bus, topic):
    bus = make_bus()
    producer = StreamProducer(group_store, bus, topic, partitions=3)
    for i in range(6):
        producer.send({'i': i})
    seqs = producer.send_batch(
        [{'i': i} for i in range(6, 12)],
        partition_keys=[None, None, 'x', 'x', None, 'x'],
    )
    assert len(seqs) == 6
    producer.close()
    assert producer.sent == 12
    per_topic = _partition_events(make_bus(), topic, 3)
    counts = {
        ptopic: sum(1 for e in events if not e.end)
        for ptopic, events in per_topic.items()
    }
    assert sum(counts.values()) == 12
    # Keyless round-robin spreads the load: no partition goes empty.
    assert all(count > 0 for count in counts.values())


def test_partitioned_producer_pickle_round_trip(group_store, make_bus, topic):
    producer = StreamProducer(group_store, make_bus(), topic, partitions=2)
    producer.send({'i': 0})
    clone = pickle.loads(pickle.dumps(producer))
    assert clone.partitions == 2
    clone.send({'i': 1})
    clone.close()
    per_topic = _partition_events(make_bus(), topic, 2)
    data = [e for events in per_topic.values() for e in events if not e.end]
    assert len(data) == 2
    ends = [events[-1].end for events in per_topic.values() if events]
    assert ends and all(ends)


def test_group_delivery_metrics_surface_on_store(make_bus, topic):
    store = repro.store_from_url(
        f'local:///group-metrics-store-{next(_STORE_COUNTER)}?metrics=1',
    )
    try:
        consumer = _group_consumer(
            store, make_bus(), topic, group=f'g-{topic}', partitions=2,
        )
        producer = StreamProducer(store, make_bus(), topic, partitions=2)
        for i in range(4):
            producer.send({'i': i})
        producer.close()
        sink: list = []
        _drain_all([consumer], [sink])
        consumer.close()
        summary = store.metrics_summary()
        assert summary['stream.group.delivered']['count'] == 4
        assert summary['stream.group.commits']['count'] >= 1
        assert 'stream.group.redelivered' not in summary
    finally:
        store.close(clear=True)
