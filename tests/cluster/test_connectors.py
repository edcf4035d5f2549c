"""Cluster configuration through connectors, URLs, and the Store facade."""
from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest

from repro.connectors.margo import MargoConnector
from repro.connectors.redis import RedisConnector
from repro.connectors.zmq import ZMQConnector
from repro.dim import lookup_node
from repro.dim import reset_nodes
from repro.exceptions import ConnectorError
from repro.kvserver.server import launch_server
from repro.proxy import get_factory
from repro.store import Store


@pytest.fixture(autouse=True)
def _clean_nodes():
    yield
    reset_nodes()


def test_dim_connector_replicated_round_trip():
    conn = ZMQConnector('z0', peers=['z0', 'z1', 'z2'], replicas=2)
    try:
        key = conn.put(b'replicated')
        assert key.replicas is not None and len(key.replicas) == 2
        assert bytes(conn.get(key)) == b'replicated'
        assert conn.exists(key)
        conn.evict(key)
        assert not conn.exists(key)
    finally:
        conn.close()


def test_dim_connector_cluster_config_round_trips():
    conn = ZMQConnector(
        'z0',
        peers=['z0', 'z1', 'z2'],
        replicas=2,
        ring_vnodes=32,
        failure_threshold=2,
    )
    try:
        config = conn.config()
        assert config['replicas'] == 2
        assert config['ring_vnodes'] == 32
        assert config['failure_threshold'] == 2
        clone = ZMQConnector(**pickle.loads(pickle.dumps(config)))
        try:
            # The clone computes identical placement: deterministic ring.
            ring_a = conn._cluster.membership.ring
            ring_b = clone._cluster.membership.ring
            assert ring_a == ring_b
            assert all(
                ring_a.owners(f'k{i}', 2) == ring_b.owners(f'k{i}', 2)
                for i in range(100)
            )
        finally:
            clone.close()
    finally:
        conn.close()


def test_dim_cluster_url_parameters():
    store = Store.from_url(
        'zmq://u0/url-cluster?peers=u0,u1,u2&replicas=2'
        '&ring_vnodes=16&hedge_threshold=0.1&failure_threshold=3'
        '&rebalance_throttle=1000000',
    )
    try:
        conn = store.connector
        options = conn._cluster.options
        assert options.replicas == 2
        assert options.ring_vnodes == 16
        assert options.hedge_threshold == 0.1
        assert options.failure_threshold == 3
        assert conn._cluster.rebalancer is not None
        assert conn._cluster.rebalancer.throttle_bytes_per_s == 1000000
        proxy_target = store.put('clustered value')
        assert store.get(proxy_target) == 'clustered value'
    finally:
        store.close()


def test_dim_url_rebalance_can_be_disabled():
    store = Store.from_url(
        'zmq://d0/no-rebalance?peers=d0,d1&replicas=2&rebalance=0',
    )
    try:
        assert store.connector._cluster.attached
        assert store.connector._cluster.rebalancer is None
    finally:
        store.close()


def test_legacy_mode_is_unchanged():
    conn = ZMQConnector('solo')
    try:
        assert not conn._cluster.attached
        assert conn._cluster.rebalancer is None
        key = conn.put(b'plain')
        assert key.replicas is None  # legacy keys carry no replica list
        assert conn.config()['replicas'] == 1
        assert conn.cluster_health() == {
            'clustered': False,
            'replicas': 1,
            'ring': ['solo'],
        }
    finally:
        conn.close()


def test_cluster_requires_peers():
    with pytest.raises(ConnectorError):
        ZMQConnector('lonely', replicas=2)


def test_join_and_leave_through_connector():
    conn = ZMQConnector('j0', peers=['j0', 'j1'], replicas=2)
    try:
        keys = [conn.put(b'x%d' % i) for i in range(10)]
        conn.join_peer('j2')
        assert 'j2' in conn._cluster.membership.ring
        assert conn._cluster.rebalancer.wait_idle(10)
        conn.leave_peer('j1')
        assert conn._cluster.rebalancer.wait_idle(10)
        for i, key in enumerate(keys):
            assert bytes(conn.get(key)) == b'x%d' % i
        # Drained: the departed node's share now lives on j0/j2 only.
        assert conn._cluster.membership.state_of('j1') == 'left'
    finally:
        conn.close()


def test_redis_cluster_from_url_and_config():
    servers = [launch_server('127.0.0.1', 0) for _ in range(3)]
    nodes = ','.join(f'{s.host}:{s.port}' for s in servers)
    try:
        store = Store.from_url(
            f'redis:///redis-url-cluster?nodes={nodes}&replicas=2'
            '&ring_vnodes=16',
        )
        try:
            key = store.put([1, 2, 3])
            assert store.get(key) == [1, 2, 3]
            config = store.connector.config()
            assert config['replicas'] == 2
            assert len(config['nodes']) == 3

            # Another process (simulated via config round-trip) agrees on
            # placement and can read the same keys — no coordinator.
            clone = RedisConnector(**pickle.loads(pickle.dumps(config)))
            try:
                assert clone.get(key) is not None
            finally:
                clone.close()
        finally:
            store.close()
    finally:
        for server in servers:
            server.stop()


def _stop_launched(conn):
    """Stop the SimKV servers ``conn`` launched (``launch_server`` hands back
    the server already running on a port it started)."""
    for node in conn.nodes or [f'{conn.host}:{conn.port}']:
        host, _, port = node.rpartition(':')
        launch_server(host, int(port)).stop()


def test_redis_launch_nodes_convenience():
    conn = RedisConnector(launch_nodes=2, replicas=2)
    try:
        key = conn.put(b'two-copies')
        assert bytes(conn.get(key)) == b'two-copies'
        health = conn.cluster_health()
        assert health['clustered'] is True
        assert len(health['ring']) == 2
    finally:
        conn.close(clear=True)
        _stop_launched(conn)


def test_redis_single_server_mode_unchanged():
    conn = RedisConnector(launch=True)
    try:
        assert not conn._cluster.attached
        key = conn.put(b'central')
        assert bytes(conn.get(key)) == b'central'
        assert conn.cluster_health() == {'clustered': False, 'replicas': 1}
        assert 'nodes' not in conn.config()
    finally:
        conn.close(clear=True)
        _stop_launched(conn)


def test_redis_rejects_conflicting_node_options():
    with pytest.raises(ConnectorError):
        RedisConnector(nodes=['127.0.0.1:1'], launch_nodes=2)
    with pytest.raises(ConnectorError):
        RedisConnector(nodes=['no-port-here'])


def test_store_metrics_capture_cluster_node_health():
    store_conn = ZMQConnector('m0', peers=['m0', 'm1'], replicas=2)
    store = Store('cluster-metrics', store_conn, metrics=True)
    try:
        key = store.put('observable')
        assert store.get(key) == 'observable'
        summary = store.metrics_summary()
        node_ops = [op for op in summary if op.startswith('cluster.node.')]
        assert node_ops, summary.keys()
        health = store.cluster_health()
        assert health['clustered'] is True
        assert set(health['nodes']) == {'m0', 'm1'}
        assert health['nodes']['m0']['state'] == 'alive'
    finally:
        store.close()


def test_store_cluster_health_without_cluster_support(local_store):
    assert local_store.cluster_health() == {'clustered': False}


def test_replicated_keys_survive_store_proxy_round_trip():
    store_conn = ZMQConnector('p0', peers=['p0', 'p1', 'p2'], replicas=2)
    store = Store('cluster-proxy', store_conn)
    try:
        proxy = store.proxy({'answer': 42})
        victim = get_factory(proxy).key.replicas[0].node_id
        lookup_node(victim, 'tcp').close()
        assert proxy['answer'] == 42  # resolves through a surviving replica
    finally:
        store.close()


def _redis_family():
    servers = [launch_server('127.0.0.1', 0) for _ in range(4)]
    ids = [f'{s.host}:{s.port}' for s in servers]
    connector = RedisConnector(nodes=ids[:3], replicas=2)
    return SimpleNamespace(
        connector=connector, field='nodes', ids=ids,
        join=connector.join_node, leave=connector.leave_node,
        ring=lambda c: c._cluster.membership.ring,
        stop=lambda: [server.stop() for server in servers],
    )


def _margo_family():
    ids = ['s0', 's1', 's2', 's3']
    connector = MargoConnector('s0', peers=ids[:3], replicas=2)
    return SimpleNamespace(
        connector=connector, field='peers', ids=ids,
        join=connector.join_peer, leave=connector.leave_peer,
        ring=lambda c: c._cluster.membership.ring, stop=lambda: None,
    )


@pytest.mark.parametrize('family', [_redis_family, _margo_family])
def test_config_follows_membership_after_join_and_leave(family):
    """A consumer rebuilt from ``config()`` places keys on the producer's ring.

    The member list in ``config()`` is the live one: a proxy minted after a
    voluntary join or leave carries the ring the producer uses *now*.
    """
    f = family()
    ids = f.ids
    store = Store(f'live-config-{f.field}', f.connector, register=False)
    try:
        for change, member, expected in (
            (f.join, ids[3], ids),
            (f.leave, ids[1], [ids[0], ids[2], ids[3]]),
        ):
            before = store.config()
            change(member)
            after = store.config()
            assert after is not before  # the Store's cached config is rebuilt
            assert after.connector_config[f.field] == expected
            consumer = Store.from_config(after, register=False)
            try:
                assert f.ring(consumer.connector) == f.ring(f.connector)
                assert set(f.ring(f.connector).nodes) == set(expected)
            finally:
                consumer.connector.close()
        # The departed node is drained, not forgotten by the membership.
        health = f.connector.cluster_health()
        assert health['nodes'][ids[1]]['state'] == 'left'
        # A crash the failure detector declares keeps the node listed, so
        # the connector's config() does not move and the Store keeps its own.
        kept = store.config()
        f.connector._cluster.membership.mark_dead(ids[2], 'crashed')
        assert f.ring(f.connector).nodes != f.ring(consumer.connector).nodes
        assert f.connector.config() == kept.connector_config
        assert store.config() is kept
    finally:
        store.close()
        f.stop()
