"""Tests for RedisConnector (backed by the SimKV server)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.connectors.redis import RedisConnector
from repro.kvserver import KVClient
from repro.kvserver import KVServer
from repro.kvserver import launch_server
from repro.kvserver.protocol import READ_AHEAD_BYTES
from repro.serialize import SerializedObject
from repro.store import Store
from tests.connectors.behavior import ConnectorBehavior


@pytest.fixture(scope='module')
def kv_server():
    server = KVServer()
    server.start()
    yield server
    server.stop()


@pytest.fixture()
def connector(kv_server):
    conn = RedisConnector(kv_server.host, kv_server.port)
    yield conn
    conn.close(clear=True)


class TestRedisConnector(ConnectorBehavior):
    pass


def test_launch_mode_starts_server():
    conn = RedisConnector(launch=True)
    try:
        key = conn.put(b'launched')
        assert conn.get(key) == b'launched'
        assert conn.port != 0
    finally:
        conn.close(clear=True)


def test_two_connectors_share_one_server(kv_server):
    a = RedisConnector(kv_server.host, kv_server.port)
    b = RedisConnector(kv_server.host, kv_server.port)
    try:
        key = a.put(b'shared')
        assert b.get(key) == b'shared'
    finally:
        a.close()
        b.close()


def test_store_proxy_through_redis_connector(kv_server):
    store = Store('redis-proxy-store', RedisConnector(kv_server.host, kv_server.port))
    try:
        p = store.proxy({'result': 42}, cache_local=False)
        import pickle

        restored = pickle.loads(pickle.dumps(p))
        assert restored['result'] == 42
    finally:
        store.close(clear=True)


def test_repr_mentions_address(kv_server):
    conn = RedisConnector(kv_server.host, kv_server.port)
    try:
        assert str(kv_server.port) in repr(conn)
    finally:
        conn.close()


def test_put_batch_uses_one_round_trip(kv_server):
    conn = RedisConnector(kv_server.host, kv_server.port)
    try:
        requests: list[str] = []
        original = conn._kv._request

        def counting_request(command, key=None, value=None):
            requests.append(command)
            return original(command, key, value)

        conn._kv._request = counting_request
        keys = conn.put_batch([f'item-{i}'.encode() for i in range(8)])
        assert requests == ['MSET']
        requests.clear()
        assert [bytes(d) for d in conn.get_batch(keys)] == [
            f'item-{i}'.encode() for i in range(8)
        ]
        assert requests == ['MGET']
        requests.clear()
        conn.evict_batch(keys)
        assert requests == ['MDEL']
        assert not any(conn.exists(k) for k in keys)
    finally:
        conn.close(clear=True)


def test_mget_returns_none_for_missing(kv_server):
    conn = RedisConnector(kv_server.host, kv_server.port)
    try:
        keys = conn.put_batch([b'a', b'b'])
        conn.evict(keys[0])
        got = conn.get_batch(keys)
        assert got[0] is None and bytes(got[1]) == b'b'
    finally:
        conn.close(clear=True)


class _CountingClient:
    """Stands in for a node's ``KVClient`` and records what close() sends."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    def flush(self) -> int:
        self.calls.append('flush')
        return 0

    def close(self) -> None:
        self.calls.append('close')


def _swap_in_counting_clients(conn: RedisConnector) -> dict[str, _CountingClient]:
    fakes = {node_id: _CountingClient() for node_id in conn._clients}
    conn._clients.update(fakes)
    return fakes


def test_close_clear_is_one_flush_per_live_node_and_none_for_a_dead_one():
    nodes = ['127.0.0.1:1', '127.0.0.1:2', '127.0.0.1:3']
    conn = RedisConnector(nodes=nodes, rebalance=False)
    fakes = _swap_in_counting_clients(conn)
    conn._cluster.membership.mark_dead('127.0.0.1:3')
    conn.close(clear=True)
    assert fakes['127.0.0.1:1'].calls == ['flush', 'close']
    assert fakes['127.0.0.1:2'].calls == ['flush', 'close']
    assert fakes['127.0.0.1:3'].calls == ['close']  # never dialled


def test_clustered_close_clear_flushes_each_live_server_once(monkeypatch):
    conn = RedisConnector(launch_nodes=3, replicas=2, rebalance=False)
    servers = {
        node: launch_server(node.rsplit(':', 1)[0], int(node.rsplit(':', 1)[1]))
        for node in conn.nodes
    }
    try:
        conn.put_batch([bytes([i]) * 64 for i in range(12)])
        dead, *live = sorted(servers)
        servers[dead].stop()
        conn._cluster.membership.mark_dead(dead)
        flushed: list[str] = []
        real_flush = KVClient.flush

        def spy(client: KVClient) -> int:
            flushed.append(f'{client.host}:{client.port}')
            return real_flush(client)

        monkeypatch.setattr(KVClient, 'flush', spy)
        conn.close(clear=True)
        assert sorted(flushed) == live
        for node in live:
            server = servers[node]
            probe = KVClient(server.host, server.port)
            try:
                assert probe.size() == 0
            finally:
                probe.close()
    finally:
        for server in servers.values():
            server.stop()


def test_close_clear_single_server_is_one_flush():
    conn = RedisConnector('127.0.0.1', 1)
    (fake,) = _swap_in_counting_clients(conn).values()
    conn.close(clear=True)
    assert fake.calls == ['flush', 'close']
    conn = RedisConnector('127.0.0.1', 1)
    (fake,) = _swap_in_counting_clients(conn).values()
    conn.close()
    assert fake.calls == ['close']


def _segmented_arrays(count: int) -> list[np.ndarray]:
    """Arrays that serialize to >= ``READ_AHEAD_BYTES`` in two segments."""
    return [np.full(READ_AHEAD_BYTES + i, i, dtype=np.uint8) for i in range(count)]


def test_replicated_store_round_trips_segmented_arrays():
    store = Store(
        'redis-segmented-replicas',
        RedisConnector(launch_nodes=3, replicas=2, rebalance=False),
    )
    try:
        arrays = _segmented_arrays(6)
        keys = [store.put(a) for a in arrays]
        keys += store.put_batch(arrays)
        for key, array in zip(keys, arrays + arrays):
            assert np.array_equal(store.get(key), array)
        store.cache.clear()
        for got, array in zip(store.get_batch(keys), arrays + arrays):
            assert np.array_equal(got, array)
        # Each copy is kept in the segments it arrived in.
        clients = store.connector._clients.values()
        copies = [c.get(keys[0].object_id) for c in clients]
        held = [c for c in copies if c is not None]
        assert len(held) == 2
        assert all(isinstance(c, SerializedObject) and len(c.pieces) == 2 for c in held)
    finally:
        store.close(clear=True)


def test_rebalancer_moves_segmented_arrays_to_a_joining_node():
    servers = [launch_server('127.0.0.1', 0) for _ in range(4)]
    ids = [f'{s.host}:{s.port}' for s in servers]
    store = Store(
        'redis-segmented-rebalance', RedisConnector(nodes=ids[:3], replicas=2),
    )
    try:
        arrays = _segmented_arrays(24)
        keys = [store.put(a) for a in arrays]
        store.connector.join_node(ids[3])
        rebalancer = store.connector._cluster.rebalancer
        assert rebalancer.wait_idle(15)
        assert rebalancer.stats.keys_migrated > 0
        moved = servers[3]._data
        assert moved and all(isinstance(v, tuple) for v in moved.values())
        for server in servers[:3]:
            server.stop()  # only the joined node's copies remain reachable
        for key, array in zip(keys, arrays):
            if key.object_id in moved:
                assert np.array_equal(store.get(key), array)
    finally:
        store.close()
        for server in servers:
            server.stop()
