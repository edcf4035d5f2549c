"""Tests for EndpointConnector."""
from __future__ import annotations

import pickle

import pytest

from repro.connectors.endpoint import EndpointConnector
from repro.connectors.endpoint import current_local_endpoint
from repro.connectors.endpoint import set_local_endpoint
from repro.endpoint import Endpoint
from repro.endpoint import RelayServer
from repro.endpoint import reset_endpoint_registry
from repro.exceptions import EndpointError
from repro.store import Store
from tests.connectors.behavior import ConnectorBehavior


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    set_local_endpoint(None)
    reset_endpoint_registry()


@pytest.fixture()
def relay():
    return RelayServer()


@pytest.fixture()
def connector(relay):
    endpoint = Endpoint('behaviour-site', relay)
    endpoint.start()
    conn = EndpointConnector([endpoint.uuid])
    yield conn
    conn.close(clear=True)
    endpoint.stop()


class TestEndpointConnector(ConnectorBehavior):
    pass


def test_requires_endpoints():
    with pytest.raises(ValueError):
        EndpointConnector([])


def test_error_when_no_endpoint_running():
    conn = EndpointConnector(['0' * 32])
    with pytest.raises(EndpointError):
        conn.put(b'x')


def test_local_endpoint_override(relay):
    a = Endpoint('site-a', relay)
    b = Endpoint('site-b', relay)
    a.start()
    b.start()
    conn = EndpointConnector([a.uuid, b.uuid])
    try:
        set_local_endpoint(b.uuid)
        assert current_local_endpoint() == b.uuid
        key = conn.put(b'written at b')
        assert key.endpoint_id == b.uuid
        assert b.exists(key.object_id)
        assert not a.exists(key.object_id)
    finally:
        set_local_endpoint(None)
        a.stop()
        b.stop()


def test_cross_site_resolution_via_peer_connection(relay):
    """Producer stores at site A; consumer at site B fetches through its own endpoint."""
    a = Endpoint('site-a', relay)
    b = Endpoint('site-b', relay)
    a.start()
    b.start()
    conn = EndpointConnector([a.uuid, b.uuid])
    try:
        set_local_endpoint(a.uuid)
        key = conn.put(b'produced at A')
        assert key.endpoint_id == a.uuid

        # Consumer side: same connector config, different local endpoint.
        set_local_endpoint(b.uuid)
        consumer = EndpointConnector.from_config(conn.config())
        assert consumer.get(key) == b'produced at A'
        assert consumer.exists(key)
        consumer.evict(key)
        assert not a.exists(key.object_id)
    finally:
        set_local_endpoint(None)
        a.stop()
        b.stop()


def test_proxy_across_sites_with_store(relay):
    """End-to-end: proxy created at site A resolves at site B via endpoints."""
    a = Endpoint('site-a', relay)
    b = Endpoint('site-b', relay)
    a.start()
    b.start()
    set_local_endpoint(a.uuid)
    store = Store('endpoint-proxy-store', EndpointConnector([a.uuid, b.uuid]))
    try:
        proxy = store.proxy({'model': [1.0, 2.0, 3.0]}, cache_local=False)
        data = pickle.dumps(proxy)

        # "Move" to site B: resolve the proxy there.
        set_local_endpoint(b.uuid)
        restored = pickle.loads(data)
        assert restored['model'] == [1.0, 2.0, 3.0]
    finally:
        set_local_endpoint(None)
        store.close()
        a.stop()
        b.stop()


def test_pinned_local_uuid(relay):
    a = Endpoint('site-a', relay)
    b = Endpoint('site-b', relay)
    a.start()
    b.start()
    conn = EndpointConnector([a.uuid, b.uuid], local_uuid=b.uuid)
    try:
        key = conn.put(b'pinned')
        assert key.endpoint_id == b.uuid
    finally:
        a.stop()
        b.stop()


def test_close_clear_clears_local_storage(relay):
    a = Endpoint('site-a', relay)
    a.start()
    conn = EndpointConnector([a.uuid])
    try:
        key = conn.put(b'x')
        commands: list[str] = []
        original = a._local._request

        def counting_request(command, key=None, value=None):
            commands.append(command)
            return original(command, key, value)

        a._local._request = counting_request
        conn.close(clear=True)
        assert commands == ['FLUSH']  # one round trip, not KEYS + MDEL
        assert a.get(key.object_id) is None
    finally:
        a.stop()
