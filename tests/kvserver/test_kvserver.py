"""Tests of the SimKV TCP key-value server and client."""
from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import ConnectorError
from repro.kvserver import KVClient
from repro.kvserver import KVServer
from repro.kvserver import launch_server
from repro.kvserver import protocol
from repro.kvserver.protocol import READ_AHEAD_BYTES
from repro.serialize import SerializedObject
from repro.serialize import deserialize
from repro.serialize import serialize


@pytest.fixture()
def server():
    srv = KVServer()
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    cli = KVClient(server.host, server.port)
    yield cli
    cli.close()


def test_server_start_assigns_port(server):
    assert server.port is not None and server.port > 0
    assert server.running


def test_server_start_idempotent(server):
    host, port = server.start()
    assert port == server.port


def test_ping(client):
    assert client.ping() is True


def test_set_get_roundtrip(client):
    client.set('key', b'value bytes')
    assert client.get('key') == b'value bytes'


def test_get_missing_returns_none(client):
    assert client.get('missing') is None


def test_exists_and_delete(client):
    client.set('k', b'v')
    assert client.exists('k')
    assert client.delete('k') is True
    assert client.delete('k') is False
    assert not client.exists('k')


def test_flush_and_size(client):
    for i in range(5):
        client.set(f'k{i}', b'x')
    assert client.size() == 5
    assert client.flush() == 5
    assert client.size() == 0


def test_large_values_roundtrip(client):
    payload = bytes(bytearray(range(256)) * 8192)  # 2 MiB
    client.set('big', payload)
    assert client.get('big') == payload


def test_overwrite_value(client):
    client.set('k', b'one')
    client.set('k', b'two')
    assert client.get('k') == b'two'


def test_set_rejects_non_bytes(client):
    with pytest.raises(ConnectorError):
        client._request('SET', 'k', 'not-bytes')


def test_unknown_command_errors(client):
    with pytest.raises(ConnectorError):
        client._request('BOGUS')


def test_malformed_request_errors(server):
    import socket

    from repro.kvserver.protocol import StreamDecoder
    from repro.kvserver.protocol import send_message

    with socket.create_connection((server.host, server.port)) as sock:
        decoder = StreamDecoder()  # one per socket: it owns the read-ahead
        send_message(sock, ('only', 'two'))
        request_id, status, payload = decoder.read_message(sock)
        assert request_id is None
        assert status == 'error'
        assert 'malformed' in payload


def test_multiple_clients_share_data(server):
    a = KVClient(server.host, server.port)
    b = KVClient(server.host, server.port)
    try:
        a.set('shared', b'42')
        assert b.get('shared') == b'42'
    finally:
        a.close()
        b.close()


def test_concurrent_clients(server):
    errors = []

    def worker(n):
        try:
            client = KVClient(server.host, server.port)
            for i in range(50):
                key = f'w{n}-{i}'
                client.set(key, f'value-{n}-{i}'.encode())
                assert client.get(key) == f'value-{n}-{i}'.encode()
            client.close()
        except Exception as e:  # pragma: no cover - only on failure
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(server) == 8 * 50


def test_client_connect_failure_raises():
    client = KVClient('127.0.0.1', 1)  # almost certainly nothing listening
    with pytest.raises(ConnectorError):
        client.ping()


def test_server_stop_clears_data(server):
    client = KVClient(server.host, server.port)
    client.set('k', b'v')
    client.close()
    server.stop()
    assert not server.running
    assert len(server) == 0


def test_server_context_manager():
    with KVServer() as srv:
        assert srv.running
        client = KVClient(srv.host, srv.port)
        assert client.ping()
        client.close()
    assert not srv.running


def test_launch_server_reuses_existing_for_fixed_port():
    first = launch_server()
    try:
        again = launch_server(first.host, first.port)
        assert again is first
    finally:
        first.stop()


def test_launch_server_ephemeral_ports_are_distinct():
    a = launch_server()
    b = launch_server()
    try:
        assert a.port != b.port
    finally:
        a.stop()
        b.stop()


# -- frames one sendmsg cannot take whole ------------------------------------ #

def _spy(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call to ``owner.name``."""
    calls: list = []
    original = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_frames_past_iov_max_segments_round_trip(server, client, monkeypatch):
    """1 100 values: the ``MSET`` request and the ``MGET`` reply each carry
    more segments than one ``sendmsg`` accepts, and the reply still takes
    the server's direct-send path (its first ``IOV_MAX``, then the rest)."""
    from repro.serialize.buffers import IOV_MAX

    keys = [f'k{i}' for i in range(1100)]
    assert len(keys) > IOV_MAX
    values = [f'value-{i}'.encode() * (1 + i % 7) for i in range(len(keys))]
    client.mset(list(zip(keys, values)))
    sends = _spy(monkeypatch, server, '_send')
    assert [bytes(v) for v in client.mget(keys)] == values
    ((conn, segments, _size),) = sends
    assert len(segments) > IOV_MAX
    assert server.faulted_connections == 0


class _ShortSends:
    """A client socket whose ``sendmsg`` takes at most 64 KiB of one segment.

    A blocking socket sends everything or times out, so this is how the
    client's partial-send fallback is reached on demand.
    """

    def __init__(self, sock) -> None:
        self._sock = sock

    def __getattr__(self, name: str):
        return getattr(self._sock, name)

    def sendmsg(self, buffers) -> int:
        return self._sock.sendmsg([buffers[0][:1 << 16]])


def test_partial_sends_both_ways_round_trip_a_bulk_value(server, monkeypatch):
    """A 4 MiB value: the client's ``sendmsg`` stops short and the rest
    follows zero-copy; the server's direct send into a 4 KiB send buffer
    stops short and the loop flushes the queued tail — byte for byte."""
    import random
    import socket

    from repro.kvserver import client as client_module

    client = KVClient(server.host, server.port, pool_size=1)
    try:
        assert client.ping()
        (server_conn,) = server._conns.values()
        server_conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        connection = client._pool[0]
        connection.sock = _ShortSends(connection.sock)
        payload = random.Random(4).randbytes(4 << 20)
        client_rests = _spy(monkeypatch, client_module, 'vectored_write')
        client.set('bulk', payload)
        assert client_rests  # the request's tail followed a partial send
        server_tails = _spy(monkeypatch, server, '_flush')
        assert bytes(client.get('bulk')) == payload
        # The loop flushes only a queued tail: the reply's tail was queued.
        assert server_tails
        assert server.faulted_connections == 0
    finally:
        client.close()


# -- bulk payloads: the server keeps the segments it received ----------------- #

def _owner(buffer):
    """The object whose memory ``buffer`` is (a view's exporter, else itself)."""
    return buffer.obj if isinstance(buffer, memoryview) else buffer


@pytest.fixture()
def section_buffers(monkeypatch):
    """Every section buffer the decoders (server's and client's) allocate."""
    allocated: list = []
    original = protocol._section_buffer

    def spy(size):
        allocated.append(original(size))
        return allocated[-1]

    monkeypatch.setattr(protocol, '_section_buffer', spy)
    return allocated


def _array(nbytes: int) -> np.ndarray:
    return np.arange(nbytes, dtype=np.uint8)


def test_bulk_segments_are_stored_as_received_and_served_as_segments(
    server, client, section_buffers,
):
    """A >= 64 KiB two-segment ``SET`` (array head, array data) is kept as
    the decoder's own buffers, never joined, and ``GET`` hands back the same
    segments."""
    array = _array(READ_AHEAD_BYTES + 4096)
    payload = serialize(array)
    lengths = [len(p) for p in payload.segments()]
    assert lengths == [15, array.nbytes]
    client.set('bulk', payload)
    stored = server._data['bulk']
    assert isinstance(stored, tuple)
    assert [len(s) for s in stored] == lengths
    received = {id(_owner(b)) for b in section_buffers}
    assert all(id(_owner(s)) in received for s in stored)
    got = client.get('bulk')
    assert isinstance(got, SerializedObject)
    assert [len(p) for p in got.pieces] == lengths
    assert np.array_equal(deserialize(got), array)


def test_mid_sized_segments_are_joined_by_the_sender(server, client):
    """Below ``READ_AHEAD_BYTES`` the client sends one buffer: the server
    stores it whole and ``GET`` returns one buffer."""
    for nbytes in (16 << 10, 32 << 10, READ_AHEAD_BYTES - 200):
        array = _array(nbytes)
        payload = serialize(array)
        assert isinstance(payload, SerializedObject) and len(payload.segments()) == 2
        client.set('mid', payload)
        stored = server._data['mid']
        assert not isinstance(stored, tuple) and len(stored) == len(payload)
        got = client.get('mid')
        assert not isinstance(got, SerializedObject) and len(got) == len(payload)
        assert np.array_equal(deserialize(got), array)


def test_mset_mget_mix_whole_and_segmented_values(server, client):
    arrays = {
        'small': _array(20 << 10),
        'large': _array(READ_AHEAD_BYTES * 3),
        'bytes': b'plain',
    }
    client.mset([(k, serialize(v)) for k, v in arrays.items()])
    assert isinstance(server._data['large'], tuple)
    assert not isinstance(server._data['small'], tuple)
    small, large, plain, missing = client.mget(['small', 'large', 'bytes', 'gone'])
    assert isinstance(large, SerializedObject) and len(large.pieces) == 2
    assert not isinstance(small, SerializedObject)
    assert np.array_equal(deserialize(small), arrays['small'])
    assert np.array_equal(deserialize(large), arrays['large'])
    assert deserialize(plain) == b'plain' and missing is None


def test_published_segments_round_trip_through_fetch(server, client):
    arrays = [_array(READ_AHEAD_BYTES + i) for i in (1, 2, 3)]
    payloads = [serialize(a) for a in arrays]
    assert client.publish('t', payloads[0]) == 0
    assert client.publish_batch('t', payloads[1:]) == [1, 2]
    reply = client.fetch_events('t', 0)
    assert [seq for seq, _ in reply['events']] == [0, 1, 2]
    for (_, got), array in zip(reply['events'], arrays):
        assert isinstance(got, SerializedObject) and len(got.pieces) == 2
        assert np.array_equal(deserialize(got), array)
    # The ring counts bytes, not segments.
    assert client.topic_stats('t')['ring_bytes'] == sum(len(p) for p in payloads)
