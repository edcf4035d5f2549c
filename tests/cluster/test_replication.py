"""Replication engine: failover, hedged reads, read-repair, orphan cleanup."""
from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import ClusterClient
from repro.cluster import ClusterMembership
from repro.cluster import Rebalancer
from repro.exceptions import NodeUnavailableError


class FakeNode:
    """In-memory NodeBackend (the eight node verbs) with fault and latency injection."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.data: dict[str, bytes] = {}
        self.down = False
        self.delay = 0.0
        self.fail_puts_with: Exception | None = None
        self.lock = threading.Lock()

    def _gate(self) -> None:
        if self.delay:
            time.sleep(self.delay)
        if self.down:
            raise NodeUnavailableError(f'{self.node_id} is down')

    def set(self, key, value):
        self._gate()
        if self.fail_puts_with is not None:
            raise self.fail_puts_with
        with self.lock:
            self.data[key] = value

    def mset(self, items):
        self._gate()
        if self.fail_puts_with is not None:
            raise self.fail_puts_with
        with self.lock:
            self.data.update(dict(items))

    def get(self, key):
        self._gate()
        with self.lock:
            return self.data.get(key)

    def mget(self, keys):
        self._gate()
        with self.lock:
            return [self.data.get(k) for k in keys]

    def exists(self, key):
        self._gate()
        with self.lock:
            return key in self.data

    def delete(self, key):
        self._gate()
        with self.lock:
            self.data.pop(key, None)

    def mdel(self, keys):
        self._gate()
        with self.lock:
            for key in keys:
                self.data.pop(key, None)

    def keys(self):
        self._gate()
        with self.lock:
            return list(self.data)


def make_cluster(n=3, replicas=2, **kwargs):
    nodes = {f'n{i}': FakeNode(f'n{i}') for i in range(n)}
    membership = ClusterMembership(nodes, vnodes=16)
    cluster = ClusterClient(
        lambda node_id: nodes[node_id],
        membership,
        replicas=replicas,
        **kwargs,
    )
    return cluster, nodes


def holders(nodes, key):
    return {n for n, node in nodes.items() if key in node.data}


def test_put_writes_exactly_n_replicas():
    cluster, nodes = make_cluster()
    for i in range(20):
        key = f'k{i}'
        owners = cluster.set(key, b'v%d' % i)
        assert len(owners) == 2
        assert holders(nodes, key) == set(owners)


def test_get_prefers_primary_and_reads_value():
    cluster, nodes = make_cluster()
    cluster.set('key', b'value')
    assert cluster.get('key') == b'value'
    assert cluster.get('never-stored') is None


def test_get_fails_over_when_primary_is_down():
    cluster, nodes = make_cluster(hedge_threshold=0)
    owners = cluster.set('key', b'value')
    nodes[owners[0]].down = True
    assert cluster.get('key') == b'value'
    assert cluster.stats.failovers >= 1
    # Ordinary traffic discovered the crash: the node left the ring.
    assert cluster.membership.state_of(owners[0]) == 'dead'


def test_hedged_read_wins_when_primary_is_slow():
    cluster, nodes = make_cluster(hedge_threshold=0.02)
    owners = cluster.set('key', b'value')
    nodes[owners[0]].delay = 0.5  # far beyond the hedge threshold
    start = time.monotonic()
    assert cluster.get('key') == b'value'
    elapsed = time.monotonic() - start
    assert elapsed < 0.4  # did not wait out the slow primary
    assert cluster.stats.hedged_reads == 1
    assert cluster.stats.hedge_wins == 1


def test_read_repair_restores_missing_replica():
    cluster, nodes = make_cluster(hedge_threshold=0)
    owners = cluster.set('key', b'value')
    # Simulate a lost copy on the primary (e.g. a restarted node).
    del nodes[owners[0]].data['key']
    assert cluster.get('key') == b'value'
    assert cluster.stats.read_repairs >= 1
    assert 'key' in nodes[owners[0]].data  # repaired


def test_put_replaces_dead_replica_and_retries():
    cluster, nodes = make_cluster()
    victim = 'n1'
    nodes[victim].down = True
    for i in range(10):
        owners = cluster.set(f'k{i}', b'x')
        assert victim not in owners
        assert holders(nodes, f'k{i}') == set(owners)
    assert cluster.membership.state_of(victim) == 'dead'


def test_partial_put_failure_evicts_orphan_replicas():
    # All nodes stay 'alive' from membership's perspective (threshold high
    # enough that retries run out first), so every attempt fails and the
    # copies that landed on healthy nodes must be cleaned up.
    nodes = {f'n{i}': FakeNode(f'n{i}') for i in range(3)}
    membership = ClusterMembership(nodes, vnodes=16, failure_threshold=100)
    cluster = ClusterClient(
        lambda node_id: nodes[node_id], membership, replicas=2,
    )
    # Find a key whose replica set includes n1, then take n1 down.
    key = next(
        f'k{i}' for i in range(100)
        if 'n1' in membership.ring.owners(f'k{i}', 2)
    )
    nodes['n1'].down = True
    with pytest.raises(NodeUnavailableError):
        cluster.set(key, b'value')
    assert holders(nodes, key) == set()  # no orphan copies anywhere
    assert cluster.stats.orphans_evicted >= 1


def test_non_unavailable_put_error_is_raised_not_retried():
    cluster, nodes = make_cluster()
    owners = cluster.membership.ring.owners('key', 2)
    nodes[owners[1]].fail_puts_with = ValueError('corrupt request')
    with pytest.raises(ValueError):
        cluster.set('key', b'value')
    # The healthy replica's copy was still cleaned up.
    assert holders(nodes, 'key') == set()
    # A bad request must not evict the node from the ring.
    assert cluster.membership.state_of(owners[1]) == 'alive'


def test_put_batch_places_every_key():
    cluster, nodes = make_cluster()
    items = [(f'k{i}', b'v%d' % i) for i in range(30)]
    placements = cluster.mset(items)
    assert set(placements) == {k for k, _ in items}
    for key, owners in placements.items():
        assert holders(nodes, key) == set(owners)


def test_get_batch_falls_back_to_replicas():
    cluster, nodes = make_cluster(hedge_threshold=0)
    items = [(f'k{i}', b'v%d' % i) for i in range(20)]
    cluster.mset(items)
    nodes['n0'].down = True
    values = cluster.mget([k for k, _ in items])
    assert values == [v for _, v in items]


def test_evict_removes_all_replicas():
    cluster, nodes = make_cluster()
    cluster.set('key', b'value')
    cluster.delete('key')
    assert holders(nodes, 'key') == set()
    assert not cluster.exists('key')


def test_exists_consults_candidates_and_owners():
    cluster, nodes = make_cluster()
    owners = cluster.set('key', b'value')
    assert cluster.exists('key')
    # Even if the ring has moved on, candidate hints still find the copy.
    nodes['extra'] = FakeNode('extra')
    nodes['extra'].data['key'] = b'value'
    for node in owners:
        cluster.backend(node).delete('key')
    assert cluster.exists('key', candidates=('extra',))


def test_put_with_no_alive_nodes_raises():
    cluster, nodes = make_cluster(n=2, replicas=2)
    for node in nodes.values():
        node.down = True
    with pytest.raises(NodeUnavailableError):
        cluster.set('key', b'value')


def test_rebalancer_re_replicates_after_crash():
    cluster, nodes = make_cluster()
    rebalancer = Rebalancer(cluster)
    try:
        placements = cluster.mset([(f'k{i}', b'x') for i in range(40)])
        victim = 'n2'
        nodes[victim].down = True
        cluster.membership.mark_dead(victim)
        assert rebalancer.wait_idle(10)
        for key in placements:
            held = holders(nodes, key) - {victim}
            assert len(held) == 2, (key, held)
    finally:
        rebalancer.stop()


def test_rebalancer_drains_voluntary_leave():
    cluster, nodes = make_cluster()
    rebalancer = Rebalancer(cluster)
    try:
        placements = cluster.mset([(f'k{i}', b'x') for i in range(40)])
        cluster.membership.leave('n0')  # still reachable: drains, not lost
        assert rebalancer.wait_idle(10)
        for key in placements:
            held = holders(nodes, key)
            # Every key fully replicated on the remaining members...
            assert held >= set(cluster.membership.ring.owners(key, 2))
        # ...and the drained copies dropped from the departed node.
        assert not nodes['n0'].data
    finally:
        rebalancer.stop()


def test_rebalancer_pulls_share_to_new_node():
    cluster, nodes = make_cluster()
    rebalancer = Rebalancer(cluster)
    try:
        cluster.mset([(f'k{i}', b'x') for i in range(60)])
        nodes['n3'] = FakeNode('n3')
        cluster.membership.join('n3')
        assert rebalancer.wait_idle(10)
        assert nodes['n3'].data  # the new node now holds its arc share
        stats = rebalancer.stats
        assert stats.keys_migrated > 0
        # Movement bound: a single join moves roughly replicas/N of keys,
        # nowhere near the whole key space.
        assert stats.keys_migrated < 60
    finally:
        rebalancer.stop()


def test_rebalancer_key_filter_excludes_keys():
    cluster, nodes = make_cluster()
    rebalancer = Rebalancer(
        cluster, key_filter=lambda key: '.s' not in key,
    )
    try:
        cluster.set('plain', b'x')
        nodes['n0'].data['pinned.s0'] = b'stripe'  # placed outside the ring
        nodes['n3'] = FakeNode('n3')
        cluster.membership.join('n3')
        assert rebalancer.wait_idle(10)
        assert 'pinned.s0' not in nodes['n3'].data
        assert holders(nodes, 'pinned.s0') == {'n0'}  # untouched
    finally:
        rebalancer.stop()
