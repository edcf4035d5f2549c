"""Tests of the distributed in-memory store substrate."""
from __future__ import annotations

import pytest

from repro.connectors.margo import MargoConnector
from repro.connectors.zmq import ZMQConnector
from repro.dim import get_local_node
from repro.dim import reset_nodes
from repro.dim.node import DIMKey
from repro.dim.node import lookup_node
from repro.exceptions import ConnectorError


@pytest.fixture(autouse=True)
def _clean_nodes():
    yield
    reset_nodes()


def test_get_local_node_is_singleton_per_id():
    a = get_local_node('node-a')
    b = get_local_node('node-a')
    assert a is b
    assert get_local_node('node-b') is not a


def test_memory_node_put_get_evict():
    node = get_local_node('n1')
    node.set('obj', b'data')
    assert node.exists('obj')
    assert node.get('obj') == b'data'
    node.delete('obj')
    assert node.get('obj') is None
    assert len(node) == 0


def test_invalid_transport_rejected():
    from repro.dim.node import DIMNode

    with pytest.raises(ValueError):
        DIMNode('x', transport='carrier-pigeon')


def test_client_put_records_node_identity():
    client = MargoConnector('node-a')
    key = client.put(b'payload')
    assert key.node_id == 'node-a'
    assert key.transport == 'memory'
    assert key.address is None


def test_client_cross_node_get_memory_transport():
    producer = MargoConnector('producer-node')
    consumer = MargoConnector('consumer-node')
    key = producer.put(b'produced here')
    # The consumer fetches from the producer's node server directly.
    assert consumer.get(key) == b'produced here'
    assert consumer.exists(key)
    consumer.evict(key)
    assert not producer.exists(key)
    producer.close()
    consumer.close()


def test_memory_transport_unknown_node_raises():
    client = MargoConnector('local')
    bogus = DIMKey('obj', 'never-created', 'memory', None)
    with pytest.raises(ConnectorError):
        client.get(bogus)
    client.close()


def test_tcp_transport_roundtrip():
    producer = ZMQConnector('tcp-node-a')
    consumer = ZMQConnector('tcp-node-b')
    try:
        key = producer.put(b'over tcp')
        assert key.transport == 'tcp'
        assert key.address is not None
        assert consumer.get(key) == b'over tcp'
        assert consumer.exists(key)
        consumer.evict(key)
        assert consumer.get(key) is None
    finally:
        producer.close()
        consumer.close()


def test_tcp_key_without_address_rejected():
    client = ZMQConnector('tcp-node')
    try:
        with pytest.raises(ConnectorError):
            client.get(DIMKey('obj', 'tcp-node', 'tcp', None))
        assert client.exists(DIMKey('obj', 'tcp-node', 'tcp', None)) is False
    finally:
        client.close()


def test_reset_nodes_clears_registry():
    get_local_node('temp-node')
    assert lookup_node('temp-node', 'memory') is not None
    reset_nodes()
    assert lookup_node('temp-node', 'memory') is None
