"""Tests of striping large objects across DIM nodes."""
from __future__ import annotations

import pytest

from repro.connectors.margo import MargoConnector
from repro.connectors.zmq import ZMQConnector
from repro.dim import get_local_node
from repro.dim import reset_nodes
from repro.exceptions import ConnectorError
from repro.serialize.buffers import SerializedObject


@pytest.fixture(autouse=True)
def _clean_nodes():
    yield
    reset_nodes()


def _pattern(nbytes: int) -> bytes:
    return bytes(bytearray(range(256)) * (nbytes // 256 + 1))[:nbytes]


@pytest.mark.parametrize('n_nodes', [1, 2, 4])
def test_tcp_shard_roundtrip_integrity(n_nodes):
    peers = [f'shard-node-{i}' for i in range(n_nodes)]
    client = ZMQConnector(
        'shard-node-0', peers=peers, shard_threshold=1024,
    )
    payload = _pattern(64 * 1024 + 13)
    try:
        key = client.put(payload)
        assert key.shards is not None
        assert len(key.shards) == n_nodes
        assert sum(shard.nbytes for shard in key.shards) == len(payload)
        got = client.get(key)
        assert bytes(got) == payload
    finally:
        client.close()


def test_shards_land_on_every_node():
    peers = [f'spread-{i}' for i in range(4)]
    client = ZMQConnector('spread-0', peers=peers, shard_threshold=64)
    try:
        key = client.put(_pattern(4096))
        nodes = {shard.node_id for shard in key.shards}
        assert nodes == set(peers)
        for peer in peers:
            assert len(get_local_node(peer, 'tcp')) == 1
    finally:
        client.close()


def test_small_objects_stay_on_one_node():
    client = ZMQConnector(
        'small-0', peers=['small-0', 'small-1'],
        shard_threshold=1024 * 1024,
    )
    try:
        key = client.put(b'tiny')
        assert key.shards is None
        assert bytes(client.get(key)) == b'tiny'
    finally:
        client.close()


def test_no_peers_disables_sharding():
    client = ZMQConnector('lonely', shard_threshold=1)
    try:
        key = client.put(_pattern(4096))
        assert key.shards is None
    finally:
        client.close()


def test_zero_threshold_disables_sharding():
    client = ZMQConnector(
        'thresh-0', peers=['thresh-0', 'thresh-1'],
        shard_threshold=0,
    )
    try:
        assert client.put(_pattern(4096)).shards is None
    finally:
        client.close()


def test_sharded_exists_and_evict():
    peers = ['ev-0', 'ev-1', 'ev-2']
    client = ZMQConnector('ev-0', peers=peers, shard_threshold=16)
    try:
        key = client.put(_pattern(3000))
        assert client.exists(key)
        client.evict(key)
        assert not client.exists(key)
        assert client.get(key) is None
        for peer in peers:
            assert len(get_local_node(peer, 'tcp')) == 0
    finally:
        client.close()


def test_memory_transport_sharding():
    peers = ['mem-0', 'mem-1']
    producer = MargoConnector('mem-0', peers=peers, shard_threshold=8)
    consumer = MargoConnector('mem-consumer')
    payload = _pattern(999)
    try:
        key = producer.put(payload)
        assert key.shards is not None and len(key.shards) == 2
        # A different client in the process reads the striped object.
        assert bytes(consumer.get(key)) == payload
    finally:
        producer.close()
        consumer.close()


def test_sharded_get_is_zero_join():
    """Sharded gets reassemble as segment views, not one joined copy."""
    client = ZMQConnector('zj-0', peers=['zj-0', 'zj-1'], shard_threshold=8)
    try:
        key = client.put(_pattern(512))
        got = client.get(key)
        assert isinstance(got, SerializedObject)
        assert len(got.segments()) >= 2
    finally:
        client.close()


def test_addressed_peer_tuples():
    """Peers in other processes are addressed as (node_id, host, port)."""
    remote = get_local_node('addr-remote', 'tcp')
    host, port = remote.address
    client = ZMQConnector(
        'addr-local', 
        peers=[('addr-remote', host, port), 'addr-local'],
        shard_threshold=16,
    )
    payload = _pattern(2048)
    try:
        key = client.put(payload)
        assert {shard.node_id for shard in key.shards} == {'addr-remote', 'addr-local'}
        assert bytes(client.get(key)) == payload
        assert len(remote) == 1
    finally:
        client.close()


def test_addressed_peers_require_tcp():
    client = MargoConnector('memaddr', peers=[('x', 'localhost', 1)], shard_threshold=1)
    try:
        with pytest.raises(ConnectorError):
            client.put(_pattern(64))
    finally:
        client.close()


def test_malformed_peer_rejected():
    client = ZMQConnector('badpeer', peers=[1234], shard_threshold=1)
    try:
        with pytest.raises(ConnectorError):
            client.put(_pattern(64))
    finally:
        client.close()


def test_batch_roundtrip_mixed_sizes():
    peers = ['batch-0', 'batch-1']
    client = ZMQConnector('batch-0', peers=peers, shard_threshold=1024)
    small = [b'a', b'bb', b'ccc']
    big = _pattern(8192)
    try:
        keys = client.put_batch([*small, big])
        assert [k.shards for k in keys[:3]] == [None, None, None]
        assert keys[3].shards is not None
        values = client.get_batch(keys)
        assert [bytes(v) for v in values[:3]] == small
        assert bytes(values[3]) == big
        client.evict_batch(keys)
        assert client.get_batch(keys) == [None, None, None, None]
    finally:
        client.close()


def test_get_batch_uses_one_mget_per_node(monkeypatch):
    client = ZMQConnector('mget-0')
    calls: list[list[str]] = []
    try:
        keys = client.put_batch([b'one', b'two', b'three'])
        kv = client._tcp_client(client._local_node.address)
        original = kv.mget

        def spy(ids):
            ids = list(ids)
            calls.append(ids)
            return original(ids)

        monkeypatch.setattr(kv, 'mget', spy)
        values = client.get_batch(keys)
        assert [bytes(v) for v in values] == [b'one', b'two', b'three']
        assert len(calls) == 1 and len(calls[0]) == 3
    finally:
        client.close()


def test_connector_level_sharding_from_url():
    from repro.store import Store

    store = Store.from_url(
        'zmq://conn-shard-0?peers=conn-shard-0,conn-shard-1&shard_threshold=256',
        name='sharded-store',
        register=False,
    )
    payload = _pattern(100_000)
    try:
        key = store.put(payload)
        assert key.shards is not None and len(key.shards) == 2
        assert bytes(store.get(key)) == payload
        config = store.connector.config()
        assert config['peers'] == ['conn-shard-0', 'conn-shard-1']
        assert config['shard_threshold'] == 256
    finally:
        store.close(clear=True)
