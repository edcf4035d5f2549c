"""Chaos test: kill a node mid-workload and assert zero lost keys."""
from __future__ import annotations

import pytest

from repro.connectors.zmq import ZMQConnector
from repro.dim import lookup_node
from repro.dim import reset_nodes
from repro.kvserver.server import launch_server


@pytest.fixture(autouse=True)
def _clean_nodes():
    yield
    reset_nodes()


def test_kill_one_dim_node_mid_workload_loses_nothing():
    client = ZMQConnector(
        'c0', peers=['c0', 'c1', 'c2'], replicas=2,
    )
    try:
        # Phase 1: steady-state workload.
        payloads = {f'obj{i}'.encode() + b'-' * i: None for i in range(60)}
        keys = {}
        for i, payload in enumerate(payloads):
            keys[payload] = client.put(payload)

        # Phase 2: crash the node holding the most primaries, with no
        # warning to the client (the typed transport error is the only
        # crash signal).
        primaries = [k.replicas[0].node_id for k in keys.values()]
        victim = max(set(primaries), key=primaries.count)
        lookup_node(victim, 'tcp').close()

        # Phase 3: the workload continues through the crash — every
        # previously written key must still be readable (replica failover)
        # and new writes must succeed (re-placement on survivors).
        for payload, key in keys.items():
            value = client.get(key)
            assert value is not None, f'lost {key.object_id} in crash'
            assert bytes(value) == payload
        post = [client.put(b'post-crash-%d' % i) for i in range(20)]
        for i, key in enumerate(post):
            assert bytes(client.get(key)) == b'post-crash-%d' % i
            assert victim not in {r.node_id for r in key.replicas}

        # The crash was detected and the membership reflects it.
        assert client._cluster.membership.state_of(victim) == 'dead'
        assert client._cluster.client.stats.failovers >= 1

        # Phase 4: background self-healing restored full replication of
        # every key onto the survivors.
        assert client._cluster.rebalancer.wait_idle(15)
        survivors = [n for n in ('c0', 'c1', 'c2') if n != victim]
        for key in list(keys.values()) + post:
            held = sum(
                1 for n in survivors
                if client._cluster.client.backend(n).exists(key.object_id)
            )
            assert held == 2, (key.object_id, held)
    finally:
        client.close()


def test_kill_one_simkv_node_mid_workload_loses_nothing():
    from repro.connectors.redis import RedisConnector

    servers = [launch_server('127.0.0.1', 0) for _ in range(3)]
    conn = RedisConnector(
        nodes=[(s.host, s.port) for s in servers], replicas=2,
    )
    try:
        keys = [conn.put(b'payload-%d' % i) for i in range(40)]
        victim = servers[0]
        victim.stop()
        for i, key in enumerate(keys):
            value = conn.get(key)
            assert value is not None, f'lost {key.object_id}'
            assert bytes(value) == b'payload-%d' % i
        post = [conn.put(b'post-%d' % i) for i in range(10)]
        for i, key in enumerate(post):
            assert bytes(conn.get(key)) == b'post-%d' % i
        dead = f'{victim.host}:{victim.port}'
        assert conn._cluster.membership.state_of(dead) == 'dead'
        assert conn._cluster.rebalancer.wait_idle(15)
    finally:
        conn.close()
        for server in servers[1:]:
            server.stop()


def test_crashed_node_can_rejoin_and_reacquire_share():
    client = ZMQConnector(
        'r0', peers=['r0', 'r1', 'r2'], replicas=2,
    )
    try:
        keys = [client.put(b'v%d' % i) for i in range(30)]
        victim = keys[0].replicas[0].node_id
        lookup_node(victim, 'tcp').close()
        for i, key in enumerate(keys):
            assert bytes(client.get(key)) == b'v%d' % i
        assert client._cluster.rebalancer.wait_idle(15)

        # Rejoin under the same id: a fresh empty server on a fresh port.
        client.join_peer(victim)
        assert client._cluster.membership.state_of(victim) == 'alive'
        assert client._cluster.rebalancer.wait_idle(15)
        # All data still present, and the rejoined node holds its share.
        for i, key in enumerate(keys):
            assert bytes(client.get(key)) == b'v%d' % i
        rejoined = client._cluster.client.backend(victim)
        assert rejoined.keys()  # reacquired part of the key space
    finally:
        client.close()
