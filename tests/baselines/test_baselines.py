"""Tests of the IPFS, DataSpaces, and Redis-over-SSH baselines."""
from __future__ import annotations

import pytest

from benchmarks.paper.baselines import DataSpacesClient
from benchmarks.paper.baselines import DataSpacesServer
from benchmarks.paper.baselines import IPFSNetwork
from benchmarks.paper.baselines import IPFSNode
from repro.exceptions import ConnectorError


# --------------------------------------------------------------------------- #
# IPFS
# --------------------------------------------------------------------------- #
def test_ipfs_add_is_content_addressed(tmp_path):
    network = IPFSNetwork()
    node = IPFSNode(str(tmp_path / 'n1'), network)
    cid1 = node.add(b'hello')
    cid2 = node.add(b'hello')
    cid3 = node.add(b'different')
    assert cid1 == cid2
    assert cid1 != cid3
    assert len(node) == 2


def test_ipfs_local_get(tmp_path):
    network = IPFSNetwork()
    node = IPFSNode(str(tmp_path / 'n1'), network)
    cid = node.add(b'local content')
    assert node.get(cid) == b'local content'
    assert node.blocks_fetched_from_peers == 0


def test_ipfs_peer_fetch_and_caching(tmp_path):
    network = IPFSNetwork()
    producer = IPFSNode(str(tmp_path / 'producer'), network)
    consumer = IPFSNode(str(tmp_path / 'consumer'), network)
    cid = producer.add(b'shared content')
    assert not consumer.has_local(cid)
    assert consumer.get(cid) == b'shared content'
    assert consumer.blocks_fetched_from_peers == 1
    # Second access is served from the local cache.
    assert consumer.get(cid) == b'shared content'
    assert consumer.blocks_fetched_from_peers == 1


def test_ipfs_missing_content_raises(tmp_path):
    network = IPFSNetwork()
    node = IPFSNode(str(tmp_path / 'n1'), network)
    with pytest.raises(ConnectorError):
        node.get('0' * 64)


def test_ipfs_remove(tmp_path):
    network = IPFSNetwork()
    node = IPFSNode(str(tmp_path / 'n1'), network)
    cid = node.add(b'x')
    node.remove(cid)
    node.remove(cid)  # idempotent
    assert not node.has_local(cid)


# --------------------------------------------------------------------------- #
# DataSpaces
# --------------------------------------------------------------------------- #
def test_dataspaces_put_get_versioned():
    server = DataSpacesServer()
    client = DataSpacesClient(server)
    client.put('field', 0, b'v0')
    client.put('field', 1, b'v1')
    assert client.get('field', 0) == b'v0'
    assert client.get('field', 1) == b'v1'
    assert server.latest_version('field') == 1
    assert len(server) == 2


def test_dataspaces_missing_raises():
    client = DataSpacesClient(DataSpacesServer())
    with pytest.raises(ConnectorError):
        client.get('missing', 0, timeout=0.01)


def test_dataspaces_blocking_get_sees_later_put():
    import threading

    server = DataSpacesServer()
    client = DataSpacesClient(server)

    def producer():
        import time

        time.sleep(0.05)
        server.put('late', 3, b'finally')

    thread = threading.Thread(target=producer)
    thread.start()
    assert client.get('late', 3, timeout=2.0) == b'finally'
    thread.join()


def test_dataspaces_exists_and_remove():
    server = DataSpacesServer()
    client = DataSpacesClient(server)
    client.put('a', 0, b'x')
    assert client.exists('a', 0)
    server.remove('a', 0)
    assert not client.exists('a', 0)
    assert server.latest_version('a') is None


def test_dataspaces_client_marks_server_started():
    server = DataSpacesServer()
    assert not server.started
    DataSpacesClient(server)
    assert server.started
