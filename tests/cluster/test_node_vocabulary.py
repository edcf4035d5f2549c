"""The eight node verbs: one contract, three implementations.

``set/get/exists/delete/mset/mget/mdel/keys`` are
:class:`repro.cluster.NodeBackend`.  A ``KVClient`` (one SimKV server), a
``DIMNode`` (this process's memory) and a ``ClusterClient`` (a replicated
set of either) all speak them, which is what lets connectors and the
replication engine hold any of the three behind one name.
"""
from __future__ import annotations

import pytest

from repro.cluster import ClusterClient
from repro.cluster import ClusterMembership
from repro.cluster import NodeBackend
from repro.dim import DIMNode
from repro.kvserver.client import KVClient
from repro.kvserver.server import KVServer
from repro.serialize.buffers import SerializedObject


def _kv_pair():
    server = KVServer()
    server.start()
    return server, KVClient(server.host, server.port)


@pytest.fixture(params=['memory-node', 'kv-client', 'cluster-client'])
def node(request):
    if request.param == 'memory-node':
        memory = DIMNode('vocab-node')
        yield memory
        memory.close()
    elif request.param == 'kv-client':
        server, client = _kv_pair()
        yield client
        client.close()
        server.stop()
    else:
        pairs = {f'n{i}': _kv_pair() for i in range(3)}
        cluster = ClusterClient(
            lambda node_id: pairs[node_id][1],
            ClusterMembership(pairs, vnodes=16),
            replicas=2,
        )
        yield cluster
        cluster.close()
        for server, client in pairs.values():
            client.close()
            server.stop()


def test_implements_the_protocol(node):
    assert isinstance(node, NodeBackend)


def test_single_key_round_trip(node):
    node.set('k', b'value')
    assert node.exists('k')
    assert bytes(node.get('k')) == b'value'
    node.set('k', b'overwritten')
    assert bytes(node.get('k')) == b'overwritten'
    node.delete('k')
    assert not node.exists('k')
    assert node.get('k') is None


def test_batch_round_trip_keeps_order(node):
    items = [(f'k{i}', b'v%d' % i) for i in range(12)]
    node.mset(items)
    wanted = [key for key, _ in reversed(items)]
    assert [bytes(v) for v in node.mget(wanted)] == [
        value for _, value in reversed(items)
    ]
    assert sorted(node.keys()) == sorted(key for key, _ in items)
    node.mdel(wanted[:5])
    assert sorted(node.keys()) == sorted(wanted[5:])
    assert node.mget(wanted[:5]) == [None] * 5


def test_missing_keys_are_none_false_and_no_op(node):
    assert node.get('never') is None
    assert node.exists('never') is False
    assert node.mget(['never', 'ever']) == [None, None]
    node.delete('never')
    node.mdel(['never', 'ever'])
    assert node.keys() == []


def test_segmented_payloads_arrive_unjoined(node):
    """Buffers travel as buffers: no verb joins a payload's segments."""
    pieces = [b'head-', bytearray(b'x' * 70_000), b'-tail']
    whole = b''.join(bytes(p) for p in pieces)
    node.set('seg', SerializedObject(list(pieces)))
    node.mset([('seg2', SerializedObject(list(pieces)))])
    for got in (node.get('seg'), node.mget(['seg2'])[0]):
        # A stored SerializedObject keeps its segments; a wire read is a
        # view of the receive buffer.  Neither is a joined ``bytes`` copy.
        assert not isinstance(got, bytes)
        if isinstance(got, SerializedObject):
            assert len(got.segments()) == len(pieces)
        assert bytes(got) == whole
