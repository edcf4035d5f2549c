"""Tests of PS-endpoints: local serving, relay introductions and forwarding."""
from __future__ import annotations

import logging
import threading

import pytest

from repro.endpoint import Endpoint
from repro.endpoint import RelayServer
from repro.endpoint import get_registered_endpoint
from repro.endpoint import registered_endpoints
from repro.endpoint import reset_endpoint_registry
from repro.exceptions import EndpointError
from repro.exceptions import PeeringError
from repro.exceptions import RelayError


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    reset_endpoint_registry()


@pytest.fixture()
def relay():
    return RelayServer()


@pytest.fixture()
def endpoint(relay):
    with Endpoint('site-a', relay) as ep:
        yield ep


# -- relay ------------------------------------------------------------------ #

def test_register_assigns_uuid_when_missing(relay):
    uuid = relay.register(('127.0.0.1', 1))
    assert isinstance(uuid, str) and len(uuid) == 32
    assert relay.connected(uuid)


def test_register_keeps_provided_uuid(relay):
    assert relay.register(('127.0.0.1', 1), endpoint_uuid='my-uuid') == 'my-uuid'


def test_introduce_returns_destination_address(relay):
    a = relay.register(('127.0.0.1', 1))
    b = relay.register(('127.0.0.1', 2))
    assert relay.introduce(a, b) == ('127.0.0.1', 2)
    # Re-registering a UUID (an endpoint restarted) replaces its address.
    relay.register(('127.0.0.1', 3), endpoint_uuid=b)
    assert relay.introduce(a, b) == ('127.0.0.1', 3)


def test_introduce_unknown_destination_raises(relay):
    a = relay.register(('127.0.0.1', 1))
    with pytest.raises(RelayError):
        relay.introduce(a, 'missing')
    assert relay.messages_forwarded == 0


def test_introduce_unregistered_source_raises(relay):
    b = relay.register(('127.0.0.1', 2))
    with pytest.raises(RelayError):
        relay.introduce('not-registered', b)


def test_unregister(relay):
    uuid = relay.register(('127.0.0.1', 1))
    relay.unregister(uuid)
    assert not relay.connected(uuid)


def test_traffic_counters_track_signaling_only(relay):
    a = relay.register(('127.0.0.1', 1))
    b = relay.register(('127.0.0.1', 2))
    assert relay.messages_forwarded == 0
    relay.introduce(a, b)
    relay.introduce(b, a)
    assert relay.messages_forwarded == 2
    # Signaling messages are tiny: this is the paper's point that the relay
    # has minimal hosting requirements.
    assert 0 < relay.bytes_forwarded < 1024


def test_relay_repr():
    assert 'test-relay' in repr(RelayServer(name='test-relay'))


# -- lifecycle and local operations --------------------------------------- #

def test_start_registers_with_relay_and_registry(relay):
    ep = Endpoint('site-x', relay)
    uuid = ep.start()
    assert relay.connected(uuid)
    assert get_registered_endpoint(uuid) is ep
    assert uuid in registered_endpoints()
    ep.stop()
    assert not relay.connected(uuid)
    assert get_registered_endpoint(uuid) is None


def test_start_is_idempotent(relay):
    ep = Endpoint('site-x', relay)
    first = ep.start()
    assert ep.start() == first
    ep.stop()
    ep.stop()  # so is stop


def test_reuses_provided_uuid(relay):
    ep = Endpoint('site-x', relay, endpoint_uuid='fixed-uuid')
    assert ep.start() == 'fixed-uuid'
    assert 'fixed-uu' in repr(ep)
    ep.stop()


def test_operations_require_running_endpoint(relay):
    ep = Endpoint('site-x', relay)
    with pytest.raises(EndpointError):
        ep.get('obj')
    ep.start()
    ep.stop()
    with pytest.raises(EndpointError):
        ep.set('obj', b'x')


def test_local_set_get_exists_evict(endpoint):
    endpoint.set('obj', b'value')
    assert endpoint.exists('obj')
    assert endpoint.get('obj') == b'value'
    endpoint.set('obj', b'overwritten')
    assert endpoint.get('obj') == b'overwritten'
    endpoint.evict('obj')
    endpoint.evict('obj')  # evicting a missing object is a no-op
    assert not endpoint.exists('obj')
    assert endpoint.get('obj') is None


def test_clear_removes_every_object(endpoint):
    endpoint.set('a', b'1')
    endpoint.set('b', b'2')
    endpoint.clear()
    assert not endpoint.exists('a') and not endpoint.exists('b')


def test_context_manager(relay):
    with Endpoint('ctx', relay) as ep:
        assert ep.running
        ep.set('k', b'v')
        assert ep.get('k') == b'v'
    assert not ep.running


def test_concurrent_clients_single_endpoint(endpoint):
    """Many client threads issue requests to the single-threaded endpoint."""
    errors = []

    def client(n):
        try:
            for i in range(20):
                endpoint.set(f'obj-{n}-{i}', b'x' * 100)
                assert endpoint.get(f'obj-{n}-{i}') == b'x' * 100
        except Exception as e:  # pragma: no cover - only on failure
            errors.append(e)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


# -- forwarding ------------------------------------------------------------- #

def test_peer_forwarding_between_endpoints(relay):
    with Endpoint('site-a', relay) as a, Endpoint('site-b', relay) as b:
        b.set('remote-obj', b'held by b')
        # A client of endpoint A asks for an object that lives on endpoint B.
        assert a.get('remote-obj', endpoint_id=b.uuid) == b'held by b'
        assert a.exists('remote-obj', endpoint_id=b.uuid)
        # GET on a remote returns the value but does not store it locally.
        assert not a.exists('remote-obj')
        a.evict('remote-obj', endpoint_id=b.uuid)
        assert not b.exists('remote-obj')


def test_peer_set_stores_on_remote(relay):
    with Endpoint('site-a', relay) as a, Endpoint('site-b', relay) as b:
        a.set('pushed', b'data', endpoint_id=b.uuid)
        assert b.get('pushed') == b'data'
        assert a.get('pushed') is None  # not stored locally on A


def test_peer_connection_reused_across_requests(relay):
    with Endpoint('site-a', relay) as a, Endpoint('site-b', relay) as b:
        b.set('o1', b'1')
        b.set('o2', b'2')
        a.get('o1', endpoint_id=b.uuid)
        a.get('o2', endpoint_id=b.uuid)
        assert list(a.peer_connections()) == [b.uuid]
        # One introduction per peer: none once the peer connection exists.
        assert relay.messages_forwarded == 1
        a.get('o1', endpoint_id=b.uuid)
        assert relay.messages_forwarded == 1


def test_bulk_data_does_not_go_through_relay(relay):
    with Endpoint('site-a', relay) as a, Endpoint('site-b', relay) as b:
        payload = b'x' * 500_000
        b.set('large', payload)
        assert a.get('large', endpoint_id=b.uuid) == payload
        # The relay carried only the introduction, never the 500 KB object.
        assert relay.bytes_forwarded < 5_000


def test_peer_connection_reestablished_after_close(relay):
    with Endpoint('site-a', relay) as a, Endpoint('site-b', relay) as b:
        b.set('obj', b'v1')
        assert a.get('obj', endpoint_id=b.uuid) == b'v1'
        # Simulate the connection dropping: the pooled client redials by
        # itself, without another introduction.
        a.peer_connections()[b.uuid].close()
        b.set('obj', b'v2')
        assert a.get('obj', endpoint_id=b.uuid) == b'v2'
        assert relay.messages_forwarded == 1


def test_request_to_unknown_endpoint_fails(endpoint):
    with pytest.raises(EndpointError):
        endpoint.get('obj', endpoint_id='0' * 32)


def test_get_missing_object_on_remote_returns_none(relay):
    with Endpoint('site-a', relay) as a, Endpoint('site-b', relay) as b:
        assert a.get('never-stored', endpoint_id=b.uuid) is None


def test_peer_restarted_on_new_port_needs_one_more_introduction(relay, caplog):
    with Endpoint('site-a', relay) as a:
        b = Endpoint('site-b', relay)
        b.start()
        b.set('obj', b'v1')
        assert a.get('obj', endpoint_id=b.uuid) == b'v1'
        old_address = relay.introduce(a.uuid, b.uuid)
        b.stop()
        # Same UUID, new server: the OS hands out a different port.
        with Endpoint('site-b', relay, endpoint_uuid=b.uuid) as restarted:
            assert relay.introduce(a.uuid, b.uuid) != old_address
            restarted.set('obj', b'v2')
            before = relay.messages_forwarded
            with caplog.at_level(logging.DEBUG, logger='repro.endpoint'):
                assert a.get('obj', endpoint_id=b.uuid) == b'v2'
            assert relay.messages_forwarded == before + 1
            assert 're-introduced' in caplog.text
            assert a.get('obj', endpoint_id=b.uuid) == b'v2'
            assert relay.messages_forwarded == before + 1


def test_peer_stopped_for_good_raises_peering_error(relay):
    with Endpoint('site-a', relay) as a:
        b = Endpoint('site-b', relay)
        b.start()
        b.set('obj', b'v1')
        assert a.get('obj', endpoint_id=b.uuid) == b'v1'
        b.stop()
        with pytest.raises(PeeringError):
            a.get('obj', endpoint_id=b.uuid)
        # A peer that died without deregistering: the relay still hands out
        # its dead address, and the retry fails fast instead of hanging.
        relay.register(('127.0.0.1', 1), endpoint_uuid=b.uuid)
        with pytest.raises(PeeringError):
            a.set('obj', b'v2', endpoint_id=b.uuid)
