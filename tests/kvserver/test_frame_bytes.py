"""The exact bytes of four SimKV frames, as the real client and server send them.

There is one frame layout (see :mod:`repro.kvserver.protocol`).  These
golden frames pin it: a ``SET`` request with one out-of-band buffer, a
``GET`` reply with one buffer, a ``GET`` reply with a two-segment value and
an error reply.  Each is captured off a socket — the request from a real
:class:`KVClient`, the replies from a real :class:`KVServer` — compared
with the bytes ``encode_message`` produces for the same tuple, and decoded
back by :class:`StreamDecoder`.
"""
from __future__ import annotations

import pickle
import socket
import struct
import threading

import pytest

from repro.kvserver import KVClient
from repro.kvserver import KVServer
from repro.kvserver.protocol import StreamDecoder
from repro.kvserver.protocol import encode_message
from repro.kvserver.protocol import send_message

SET_REQUEST = bytes.fromhex(
    '00000025000000010000000000000005'
    '8005951a00000000000000284b008c03'
    '534554948c06676f6c64656e945d9497'
    '986174942e76616c7565',
)
GET_REPLY_ONE_BUFFER = bytes.fromhex(
    '00000017000000010000000000000005'
    '8005950c000000000000004b018c026f'
    '6b94979887942e76616c7565',
)
GET_REPLY_TWO_SEGMENTS = bytes.fromhex(
    '0000001b000000020000000000000002'
    '00000000000000038005951000000000'
    '0000004b028c026f6b94979897988694'
    '87942e6162636465',
)
ERROR_REPLY = bytes.fromhex(
    '00000031000000008005952600000000'
    '0000004b038c056572726f72948c1675'
    '6e6b6e6f776e20636f6d6d616e642027'
    '4e4f5045279487942e',
)


def _recv_exactly(sock: socket.socket, size: int) -> bytes:
    data = b''
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        assert chunk, 'peer closed mid-frame'
        data += chunk
    return data


def _read_frame(sock: socket.socket) -> bytes:
    """One whole frame off ``sock``, as raw bytes."""
    head = _recv_exactly(sock, 8)
    pickle_len, n_buffers = struct.unpack('>II', head)
    table = _recv_exactly(sock, 8 * n_buffers)
    lengths = struct.unpack(f'>{n_buffers}Q', table)
    return head + table + _recv_exactly(sock, pickle_len + sum(lengths))


def _decoded(frame: bytes):
    """``frame`` through a fresh decoder, buffers as ``bytes``."""
    reader, writer = socket.socketpair()
    with reader, writer:
        writer.sendall(frame)
        message = StreamDecoder().read_message(reader)

    def plain(value):
        if isinstance(value, tuple):
            return tuple(plain(v) for v in value)
        if isinstance(value, (bytearray, memoryview)):
            return bytes(value)
        return value
    return plain(message)


@pytest.fixture()
def server():
    srv = KVServer()
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def raw(server):
    """A raw socket to ``server``."""
    sock = socket.create_connection((server.host, server.port))
    yield sock
    sock.close()


def test_set_request_bytes():
    listener = socket.create_server(('127.0.0.1', 0))
    host, port = listener.getsockname()
    captured: list[bytes] = []

    def serve() -> None:
        conn, _addr = listener.accept()
        with conn:
            captured.append(_read_frame(conn))
            send_message(conn, (0, 'ok', True))

    thread = threading.Thread(target=serve)
    thread.start()
    client = KVClient(host, port, pool_size=1)
    try:
        client.set('golden', b'value')
    finally:
        client.close()
        thread.join(timeout=5)
        listener.close()
    assert captured == [SET_REQUEST]
    frame = b''.join(
        bytes(s)
        for s in encode_message((0, 'SET', 'golden', [pickle.PickleBuffer(b'value')]))
    )
    assert frame == SET_REQUEST
    assert _decoded(SET_REQUEST) == (0, 'SET', 'golden', [b'value'])


def test_get_reply_with_one_buffer_bytes(raw):
    send_message(raw, (0, 'SET', 'golden', [pickle.PickleBuffer(b'value')]))
    assert _decoded(_read_frame(raw)) == (0, 'ok', True)
    send_message(raw, (1, 'GET', 'golden', None))
    assert _read_frame(raw) == GET_REPLY_ONE_BUFFER
    frame = b''.join(
        bytes(s)
        for s in encode_message((1, 'ok', pickle.PickleBuffer(b'value')))
    )
    assert frame == GET_REPLY_ONE_BUFFER
    assert _decoded(GET_REPLY_ONE_BUFFER) == (1, 'ok', b'value')


def test_get_reply_with_two_segments_bytes(raw):
    segments = [pickle.PickleBuffer(b'ab'), pickle.PickleBuffer(b'cde')]
    send_message(raw, (0, 'SET', 'golden', segments))
    assert _decoded(_read_frame(raw)) == (0, 'ok', True)
    send_message(raw, (2, 'GET', 'golden', None))
    assert _read_frame(raw) == GET_REPLY_TWO_SEGMENTS
    reply = (2, 'ok', (pickle.PickleBuffer(b'ab'), pickle.PickleBuffer(b'cde')))
    assert b''.join(bytes(s) for s in encode_message(reply)) == GET_REPLY_TWO_SEGMENTS
    assert _decoded(GET_REPLY_TWO_SEGMENTS) == (2, 'ok', (b'ab', b'cde'))


def test_error_reply_bytes(raw):
    send_message(raw, (3, 'NOPE', None, None))
    assert _read_frame(raw) == ERROR_REPLY
    reply = (3, 'error', "unknown command 'NOPE'")
    assert b''.join(bytes(s) for s in encode_message(reply)) == ERROR_REPLY
    assert _decoded(ERROR_REPLY) == reply
