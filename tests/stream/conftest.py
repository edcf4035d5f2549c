"""Fixtures for the streaming tests: both event transports, one KV server.

Every bus-facing test is parametrized over the ``local`` (in-process ring
buffers) and ``kv`` (SimKV broker, long-polled ``FETCH``) transports so the
ordering/retention/backpressure guarantees are verified end to end on
each.
"""
from __future__ import annotations

import itertools

import pytest

import repro
from repro.kvserver.server import KVServer
from repro.stream import KVEventBus
from repro.stream import LocalEventBus

_COUNTER = itertools.count()


@pytest.fixture(scope='module')
def kv_server():
    """One SimKV broker shared by the module's KV-transport tests."""
    server = KVServer(stream_retention=256)
    server.start()
    yield server
    server.stop()


@pytest.fixture(params=['local', 'kv'])
def make_bus(request, kv_server):
    """Factory returning fresh, same-transport bus handles per call.

    Handles made by one factory share topics (``local`` buses share a
    ``bus_id`` namespace; ``kv`` buses point at the module's server), so a
    test can hold distinct producer- and consumer-side handles.
    """
    transport = request.param
    bus_id = f'test-bus-{next(_COUNTER)}'
    created = []

    def factory(**kwargs):
        if transport == 'local':
            bus = LocalEventBus(bus_id, **kwargs)
        else:
            assert kv_server.port is not None
            bus = KVEventBus(kv_server.host, kv_server.port, **kwargs)
        created.append(bus)
        return bus

    factory.transport = transport
    yield factory
    for bus in created:
        bus.close()


@pytest.fixture()
def topic():
    """A topic name unique to the test (topics outlive bus handles)."""
    return f'topic-{next(_COUNTER)}'


@pytest.fixture()
def stream_store():
    """A local store per test, cleared on teardown."""
    store = repro.store_from_url(
        f'local:///stream-test-store-{next(_COUNTER)}',
    )
    yield store
    store.close(clear=True)
