"""Tests of the concurrent SimKV transport: pipelining, drain, retry.

And of who receives: a plain client starts no thread — the requesters
pass the connection's receive role among themselves (leader/follower).
"""
from __future__ import annotations

import functools
import pickle
import socket
import sys
import threading
import time

import pytest

from repro.exceptions import ConnectorError
from repro.exceptions import NodeUnavailableError
from repro.kvserver import KVClient
from repro.kvserver import KVServer
from repro.kvserver.client import _Pending
from repro.kvserver.protocol import StreamDecoder
from repro.kvserver.protocol import encode_message
from repro.kvserver.protocol import send_message


def _frame_reader(sock):
    """Blocking frame-at-a-time reads of ``sock``, the way the client does.

    One decoder per socket: it holds whatever arrived behind a frame.
    """
    return functools.partial(StreamDecoder().read_message, sock)


@pytest.fixture()
def server():
    srv = KVServer()
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def fast_switching():
    """Switch threads inside the hand-overs and wake-ups, not around them."""
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(switch_interval)


def test_many_threads_pipeline_one_client(server):
    """N threads issue mixed get/put/exists through ONE shared client."""
    client = KVClient(server.host, server.port)
    errors: list[Exception] = []

    def worker(n: int) -> None:
        try:
            for i in range(40):
                key = f'w{n}-{i}'
                value = f'value-{n}-{i}'.encode()
                client.set(key, value)
                assert client.exists(key)
                got = client.get(key)
                assert bytes(got) == value
                assert client.get(f'missing-{n}-{i}') is None
        except Exception as e:  # pragma: no cover - only on failure
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(server) == 12 * 40
    client.close()


def test_pipelined_responses_match_requests(server):
    """Interleaved large and small values never cross request ids."""
    client = KVClient(server.host, server.port, pool_size=1)
    big = bytes(bytearray(range(256)) * 4096)  # 1 MiB
    client.set('big', big)
    errors: list[Exception] = []

    def reader(n: int) -> None:
        try:
            for _ in range(20):
                assert bytes(client.get('big')) == big
                client.set(f'small-{n}', b'tiny')
                assert bytes(client.get(f'small-{n}')) == b'tiny'
        except Exception as e:  # pragma: no cover - only on failure
            errors.append(e)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    client.close()


def _reader_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == 'simkv-client-reader']


def test_plain_client_starts_no_thread(server):
    """The requesting threads do every receive: no reader thread."""
    threads_before = threading.active_count()
    client = KVClient(server.host, server.port, pool_size=3)
    for i in range(9):  # every pooled connection has carried requests
        client.set(f'k{i}', b'v')
        assert bytes(client.get(f'k{i}')) == b'v'
    assert all(c is not None for c in client._pool)
    assert threading.active_count() == threads_before
    assert _reader_threads() == []
    client.close()
    assert threading.active_count() == threads_before


def test_leadership_is_handed_on_between_requesters(server, monkeypatch, fast_switching):
    """16 threads per pool: own replies only, and more than one led."""
    for pool_size in (1, 2):
        with monkeypatch.context() as patch:
            _hand_on_leadership(server, patch, pool_size)


def _hand_on_leadership(server, monkeypatch, pool_size: int) -> None:
    client = KVClient(server.host, server.port, pool_size=pool_size)
    for _ in range(pool_size):
        client.ping()
    connections = list(client._pool)
    leaders: set[int] = set()

    def recording(receive_until):
        def record(own):
            leaders.add(threading.get_ident())
            return receive_until(own)
        return record

    for connection in connections:
        monkeypatch.setattr(
            connection, '_receive_until', recording(connection._receive_until),
        )
    errors: list[Exception] = []
    barrier = threading.Barrier(16)

    def worker(n: int) -> None:
        try:
            barrier.wait(timeout=10)
            for i in range(50):
                value = f'{n}-{i}'.encode() * 20
                client.set(f'w{n}', value)
                assert bytes(client.get(f'w{n}')) == value
        except Exception as e:  # pragma: no cover - only on failure
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert errors == []
    assert len(leaders) > 1
    assert client._pool == connections
    for connection in connections:
        assert not connection.dead
        assert not connection._read_lock.locked() and not connection._pending
    client.close()


def test_lone_request_creates_no_event_or_condition(server, monkeypatch):
    """A plain connection's waiter is a bare lock: no ``Event``/``Condition``."""
    made: list[str] = []

    def counting(name):
        original = getattr(threading, name)

        def make(*args, **kwargs):
            made.append(name)
            return original(*args, **kwargs)
        return make

    monkeypatch.setattr(threading, 'Event', counting('Event'))
    monkeypatch.setattr(threading, 'Condition', counting('Condition'))
    client = KVClient(server.host, server.port, pool_size=1)
    try:
        client.set('k', b'v')
        assert bytes(client.get('k')) == b'v'
        assert client.delete('k')
    finally:
        client.close()
    assert made == []


def test_waiter_woken_twice_then_reused_neither_raises_nor_wakes_early():
    """A reply and a hand-on may both wake one waiter: one wake is kept."""
    waiter = _Pending()
    waker = threading.Thread(target=waiter.wake)
    waker.start()
    waker.join()
    waiter.wake()  # the second wake: not an error, not a second token
    started = time.monotonic()
    waiter.wait(5.0)  # the kept wake: returns at once
    assert time.monotonic() - started < 1.0
    started = time.monotonic()
    waiter.wait(0.2)  # reused by a follower: nothing left to return early on
    assert time.monotonic() - started >= 0.15
    threading.Timer(0.05, waiter.wake).start()
    started = time.monotonic()
    waiter.wait(5.0)  # and a later wake still reaches it
    assert time.monotonic() - started < 1.0


def test_connection_pool_spreads_requests(server):
    client = KVClient(server.host, server.port, pool_size=3)
    for i in range(9):
        client.set(f'k{i}', b'v')
    live = [c for c in client._pool if c is not None]
    assert len(live) == 3
    client.close()


def test_pool_size_must_be_positive(server):
    with pytest.raises(ValueError):
        KVClient(server.host, server.port, pool_size=0)


def test_graceful_shutdown_drains_in_flight_request():
    """A request already on the wire when stop() begins still gets answered."""
    server = KVServer()
    server.start()
    with socket.create_connection((server.host, server.port)) as sock:
        send_message(sock, (7, 'SET', 'k', [pickle.PickleBuffer(b'drained')]))
        send_message(sock, (8, 'GET', 'k', None))
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        read_frame = _frame_reader(sock)
        first = read_frame()
        second = read_frame()
        stopper.join(timeout=10)
        assert first == (7, 'ok', True)
        assert second is not None
        request_id, status, payload = second
        assert (request_id, status) == (8, 'ok')
        assert bytes(payload) == b'drained'
        # After the drain the server closes the connection.
        assert read_frame() is None
    assert not server.running


def test_shutdown_drains_many_pipelined_clients():
    server = KVServer()
    server.start()
    client = KVClient(server.host, server.port)
    results: list[bool] = []
    errors: list[Exception] = []
    barrier = threading.Barrier(9)

    def worker(n: int) -> None:
        barrier.wait()
        try:
            client.set(f'k{n}', b'x')
            results.append(True)
        except ConnectorError:
            # A request that arrived after the drain window closed is
            # reported as a failure, never silently dropped or hung.
            errors.append(ConnectorError('late'))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    barrier.wait()
    time.sleep(0.05)  # let most requests reach the wire
    server.stop()
    for t in threads:
        t.join(timeout=15)
        assert not t.is_alive()
    assert len(results) + len(errors) == 8
    assert results  # the in-flight requests were drained, not dropped
    client.close()


def test_request_retries_once_on_stale_connection(server):
    """A dead pooled socket is transparently replaced and the op retried."""
    client = KVClient(server.host, server.port, pool_size=1)
    client.set('k', b'v1')
    connection = client._pool[0]
    assert connection is not None
    # Kill the underlying socket without telling the client.
    connection.sock.shutdown(socket.SHUT_RDWR)
    client.set('k', b'v2')  # would have raised ConnectorError before
    assert bytes(client.get('k')) == b'v2'
    client.close()


def test_request_after_server_restart_reconnects():
    server = KVServer()
    host, port = server.start()
    client = KVClient(host, port)
    client.set('k', b'v')
    server.stop()
    restarted = KVServer(host, port)
    restarted.start()
    try:
        client.set('k2', b'v2')  # first request after restart succeeds
        assert bytes(restarted_get := client.get('k2')) == b'v2', restarted_get
    finally:
        client.close()
        restarted.stop()


def test_connect_failure_does_not_retry_forever():
    client = KVClient('127.0.0.1', 1)
    start = time.perf_counter()
    with pytest.raises(ConnectorError):
        client.ping()
    assert time.perf_counter() - start < 5.0


def test_request_timeout_surfaces_as_connector_error():
    """A server that never answers trips the client-side wait timeout."""
    listener = socket.socket()
    listener.bind(('127.0.0.1', 0))
    listener.listen(1)
    host, port = listener.getsockname()
    client = KVClient(host, port, timeout=0.2)
    try:
        with pytest.raises(ConnectorError):
            client.ping()
    finally:
        client.close()
        listener.close()


def test_timed_out_leader_hands_the_connection_to_a_follower(fast_switching):
    """The leader's request times out; the follower's reply still arrives.

    The server accepts, never answers request 0, and answers request 1
    only after request 0 has timed out — so the reply can only be read by
    the follower taking the receive role over from the departed leader.
    """
    for pool_size in (1, 2):
        _time_out_the_leader(pool_size)


def _time_out_the_leader(pool_size: int) -> None:
    timeout = 0.4
    listener = socket.socket()
    listener.bind(('127.0.0.1', 0))
    listener.listen(1)
    host, port = listener.getsockname()
    leader_gone = threading.Event()

    def serve() -> None:
        conn, _addr = listener.accept()
        with conn:
            read_frame = _frame_reader(conn)
            assert read_frame()[0] == 0
            second = read_frame()
            assert leader_gone.wait(timeout=10)
            time.sleep(0.05)
            send_message(conn, (second[0], 'ok', 'PONG'))
            read_frame()  # hold the connection open until the client closes

    server_thread = threading.Thread(target=serve, daemon=True)
    server_thread.start()
    client = KVClient(host, port, timeout=timeout, pool_size=pool_size)
    connection = client._connection()
    outcome: list = []

    def lead() -> None:
        started = time.monotonic()
        try:
            connection.request(('PING', None, None), timeout)
        except ConnectorError as e:
            outcome.append((e, time.monotonic() - started))
        leader_gone.set()

    leader = threading.Thread(target=lead)
    try:
        leader.start()
        while not connection._read_lock.locked():  # the leader is in recv
            time.sleep(0.005)
        time.sleep(timeout * 0.6)
        # Sent later than the leader's, so still inside its own bound when
        # the leader gives up.
        assert connection.request(('PING', None, None), timeout) == ('ok', 'PONG')
        leader.join(timeout=5)
        ((error, elapsed),) = outcome
        assert 'connection inactivity' in str(error)
        assert timeout <= elapsed < 1.5 * timeout
        assert not connection.dead
    finally:
        client.close()
        listener.close()
        server_thread.join(timeout=5)
        assert not server_thread.is_alive()


def test_close_wakes_a_leader_blocked_in_recv(fast_switching):
    for pool_size in (1, 2):
        _close_under_the_leader(pool_size)


def _close_under_the_leader(pool_size: int) -> None:
    listener = socket.socket()
    listener.bind(('127.0.0.1', 0))
    listener.listen(1)
    host, port = listener.getsockname()
    client = KVClient(host, port, timeout=30.0, pool_size=pool_size)
    connection = client._connection()
    outcome: list = []

    def ask() -> None:
        try:
            connection.request(('PING', None, None), 30.0)
        except NodeUnavailableError as e:
            outcome.append(e)

    asker = threading.Thread(target=ask)
    asker.start()
    try:
        while not connection._read_lock.locked():
            time.sleep(0.005)
        time.sleep(0.05)  # into the recv itself
        started = time.monotonic()
        client.close()
        asker.join(timeout=5)
        assert not asker.is_alive()
        assert time.monotonic() - started < 1.0
        assert 'client closed the connection' in str(outcome[0])
    finally:
        client.close()
        listener.close()


def test_inactivity_timeout_allows_slow_streaming_responses():
    """The timeout bounds idle time, not total transfer duration."""
    from repro.kvserver.protocol import encode_message

    listener = socket.socket()
    listener.bind(('127.0.0.1', 0))
    listener.listen(1)
    host, port = listener.getsockname()
    payload = b'x' * 40_000

    def serve() -> None:
        conn, _addr = listener.accept()
        with conn:
            request = _frame_reader(conn)()
            assert request is not None
            segments = encode_message(
                (request[0], 'ok', pickle.PickleBuffer(payload)),
            )
            blob = b''.join(bytes(s) for s in segments)
            # Drip the response: ~0.9 s total, but never >0.3 s idle.
            for i in range(0, len(blob), 2500):
                conn.sendall(blob[i:i + 2500])
                time.sleep(0.05)

    server_thread = threading.Thread(target=serve, daemon=True)
    server_thread.start()
    client = KVClient(host, port, timeout=0.3)
    try:
        start = time.perf_counter()
        got = client.get('whatever')
        elapsed = time.perf_counter() - start
        assert bytes(got) == payload
        assert elapsed > 0.3  # took longer than the timeout, yet succeeded
    finally:
        client.close()
        listener.close()
        server_thread.join(timeout=5)


def test_malformed_frame_kills_only_that_connection(server):
    """Garbage on one connection must not take down the event loop, and
    neither must a frame cut short by a peer that dies mid-write."""
    import struct

    healthy = KVClient(server.host, server.port)
    healthy.set('before', b'1')
    with socket.create_connection((server.host, server.port)) as bad:
        # Valid header announcing an 8-byte pickle, followed by garbage
        # that cannot unpickle.
        bad.sendall(struct.pack('>II', 8, 0) + b'\xffGARBAGE')
        # The server closes the offending connection...
        assert _frame_reader(bad)() is None
    # ...but keeps serving everyone else.
    assert bytes(healthy.get('before')) == b'1'
    healthy.set('after', b'2')
    assert server.running
    # A strict prefix of a valid SET frame with a 4 KiB out-of-band value,
    # then the socket closes: the partial value is never stored.
    frame = b''.join(
        encode_message((1, 'SET', 'cut', [pickle.PickleBuffer(b'x' * 4096)])),
    )
    with socket.create_connection((server.host, server.port)) as cut:
        cut.sendall(frame[: len(frame) // 2])
    assert healthy.get('cut') is None
    healthy.set('after-cut', b'3')
    assert bytes(healthy.get('after-cut')) == b'3'
    assert server.running
    healthy.close()


def test_oversized_frame_header_rejected(server):
    """A bogus multi-GB frame header is rejected, not allocated."""
    import struct

    healthy = KVClient(server.host, server.port)
    with socket.create_connection((server.host, server.port)) as bad:
        bad.sendall(struct.pack('>II', 0xFFFFFFFF, 0xFFFFFFFF))
        assert _frame_reader(bad)() is None  # connection dropped
    assert healthy.ping()
    assert server.running
    healthy.close()


def test_request_level_exception_returns_error_response(server):
    """A request the handler chokes on yields an error, not a dead server."""
    client = KVClient(server.host, server.port)
    with pytest.raises(ConnectorError, match='internal error'):
        client._request('SET', ['unhashable', 'key'], [pickle.PickleBuffer(b'x')])
    assert client.ping()
    assert server.running
    client.close()
