"""A budget on the Python one SimKV request runs on each end.

A small request is two syscalls and the Python around them; the Python is
what costs (a bare ``sendmsg``/``recv_into`` ping-pong is several times
cheaper than a request).  This test counts calls to named functions in
``repro/kvserver`` and ``repro/serialize`` — the transport's own code —
on the requesting thread and on the server's loop thread, per 1 KB
``SET`` + ``GET`` + ``DEL`` triple, and bounds each side.  Calls, not
bytecodes or time, so the count is the same on every Python version and
under the lock-order witness (whose wrappers live in ``repro/analysis``).
"""
from __future__ import annotations

import os
import sys
import threading

import pytest

import repro.kvserver
import repro.serialize
from repro.kvserver import KVClient
from repro.kvserver import KVServer

#: Calls per ``SET`` + ``GET`` + ``DEL`` triple allowed on each side.
BUDGET = 30

_ROOTS = tuple(
    os.path.dirname(package.__file__) + os.sep
    for package in (repro.kvserver, repro.serialize)
)
_TRIPLES = 20


class _CallCounter:
    """A profile function counting transport calls per thread, when armed."""

    def __init__(self) -> None:
        self.armed = False
        self.calls: dict[str, int] = {}

    def __call__(self, frame, event, _arg):
        if event == 'call' and self.armed:
            code = frame.f_code
            if code.co_filename.startswith(_ROOTS) and not code.co_name.startswith('<'):
                name = threading.current_thread().name
                self.calls[name] = self.calls.get(name, 0) + 1


@pytest.fixture()
def counted():
    """A server whose loop thread, and a caller thread, run the counter."""
    counter = _CallCounter()
    threading.setprofile(counter)
    try:
        server = KVServer()
        server.start()
    finally:
        threading.setprofile(None)
    client = KVClient(server.host, server.port, pool_size=1)
    sys.setprofile(counter)
    try:
        yield counter, client
    finally:
        sys.setprofile(None)
        client.close()
        server.stop()


def test_set_get_del_stays_within_the_call_budget(counted):
    counter, client = counted
    value = os.urandom(1024)

    def triple(key: str) -> None:
        client.set(key, value)
        assert bytes(client.get(key)) == value
        assert client.delete(key)

    for i in range(5):  # warm-up: connect, first-use caches
        triple(f'warm-{i}')
    counter.armed = True
    for i in range(_TRIPLES):
        triple(f'key-{i}')
    counter.armed = False
    client_calls = counter.calls.get(threading.current_thread().name, 0) / _TRIPLES
    server_calls = counter.calls.get('simkv-loop', 0) / _TRIPLES
    assert client_calls <= BUDGET, f'client: {client_calls} calls per triple'
    assert server_calls <= BUDGET, f'server: {server_calls} calls per triple'
