"""The SimKV server: a non-blocking, event-loop TCP key-value store.

One server instance holds an in-memory ``dict`` and serves any number of
concurrent client connections from a single ``selectors`` event loop —
no thread is spawned per connection, so thousands of pipelined clients
cost one file descriptor each instead of a Python thread each.  The loop
keeps the scatter/gather zero-copy framing of the wire protocol, so payload
bytes go straight between storage and the socket without intermediate
joins.  A small request costs the loop one receive and one send: the
decoder (:class:`~repro.kvserver.protocol.StreamDecoder`) stops at a short
``recv_into`` (the selector is level-triggered and reports the socket again
if more arrives), the command finds its handler in one lookup
(``KVServer._HANDLERS``), and the reply goes out in one non-blocking
``sendmsg`` when nothing is queued ahead of it — only an unsent tail is
queued for the loop to flush.

Shutdown drains: :meth:`KVServer.stop` closes the listener, answers every
parked ``FETCH``, keeps the loop running until every already-received
request has been answered and every queued response byte flushed (bounded
by ``drain_timeout``), and only then closes the client connections.

Beyond plain key-value storage the server is also a **pub/sub event
broker** (the transport behind :class:`repro.stream.KVEventBus`):
``PUBLISH`` appends an opaque payload to a per-topic ring buffer (bounded
by a configurable retention) and ``FETCH`` reads the ring from a sequence
number.  A ``FETCH`` with a ``wait`` that finds nothing at or past its
``since`` *parks* on the topic: the next ``PUBLISH``, ``MPUBLISH`` or
``REPL_PUBLISH`` there answers it, or its deadline does with an empty
batch, and the loop's select timeout is the earliest parked deadline.  The
server writes nothing but replies, so a client that stops reading pins
only the replies to its own requests, and broker memory is bounded by
retention alone.  What the broker remembers — topic rings, consumer-group
leases and offsets — is the pure state of :mod:`repro.kvserver.broker`,
shared with the in-process bus; this module adds the wire: input checks,
payload wrapping, parked fetches.
"""
from __future__ import annotations

import heapq
import pickle
import selectors
import socket
import threading
import time
from collections import deque
from functools import partial
from itertools import count
from itertools import islice
from typing import Any
from typing import Callable

from repro.exceptions import ConnectorError
from repro.exceptions import GroupMembershipError
from repro.kvserver.broker import GroupState
from repro.kvserver.broker import TopicRing
from repro.kvserver.protocol import UNKNOWN_MEMBER
from repro.kvserver.protocol import StreamDecoder
from repro.kvserver.protocol import _encode_frame
from repro.serialize.buffers import IOV_MAX
from repro.serialize.buffers import unsent

__all__ = ['DEFAULT_RETENTION', 'KVServer', 'launch_server']

#: Default per-topic ring-buffer retention (events kept for catch-up).
DEFAULT_RETENTION = 256

#: Longest ``wait`` (seconds) a ``FETCH`` may park for.
MAX_FETCH_WAIT = 60.0

#: Status a handler returns for a ``FETCH`` it parked (never on the wire).
_PARKED = 'parked'


class _ClientConn:
    """Per-connection state tracked by the event loop."""

    __slots__ = ('sock', 'decoder', 'out', 'writing')

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = StreamDecoder()
        #: Outgoing wire segments not yet accepted by the kernel.
        self.out: deque = deque()
        #: Whether the selector also watches for writability (it does
        #: while ``out`` holds bytes, and only then).
        self.writing = False


class _ParkedFetch:
    """A ``FETCH`` waiting for its topic to reach ``since``."""

    __slots__ = ('conn', 'request_id', 'since', 'limit', 'deadline')

    def __init__(
        self, conn: _ClientConn, request_id: Any, since: int, limit: int, deadline: float,
    ) -> None:
        self.conn = conn
        self.request_id = request_id
        self.since = since
        self.limit = limit
        self.deadline = deadline


def _wire_value(data: Any) -> Any:
    """A stored value (see :meth:`KVServer._own_value`) wrapped for a reply.

    Each segment travels out of band, straight from storage to the
    socket: a tuple of segments as a tuple of that many
    :class:`pickle.PickleBuffer` objects, one buffer as one.  Empty and
    missing values go in band.
    """
    if isinstance(data, tuple):
        return tuple(pickle.PickleBuffer(segment) for segment in data)
    return pickle.PickleBuffer(data) if data else data


def _fetch_reply(topic: TopicRing | None, since: int, limit: int) -> dict[str, Any]:
    """A ``FETCH`` reply: the retained events from ``since`` (at most
    ``limit``, 0 = all), payloads wrapped to travel out of band.  A topic
    nothing was published to reads as empty (``None``: no ring made)."""
    if topic is None:
        return {'events': [], 'next_seq': 0, 'lost': 0}
    events, lost = topic.since(since, limit or None)
    return {
        'events': [(seq, _wire_value(payload)) for seq, payload in events],
        'next_seq': topic.next_seq,
        'lost': lost,
    }


class KVServer:
    """In-memory key-value store and pub/sub event broker reachable over TCP.

    Args:
        host: interface to bind (default loopback).
        port: TCP port; ``0`` picks a free ephemeral port.
        drain_timeout: maximum seconds :meth:`stop` keeps serving to drain
            in-flight requests and flush queued responses.
        stream_retention: default per-topic ring-buffer size (events kept
            for subscriber catch-up); ``TCONFIG`` overrides it per topic.
    """

    def __init__(
        self,
        host: str = '127.0.0.1',
        port: int = 0,
        *,
        drain_timeout: float = 5.0,
        stream_retention: int = DEFAULT_RETENTION,
    ) -> None:
        if stream_retention < 1:
            raise ValueError('stream_retention must be at least 1')
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.drain_timeout = drain_timeout
        self.stream_retention = stream_retention
        #: Connections closed because servicing them raised (fault
        #: isolation events — the per-connection failures the event loop
        #: deliberately survives).
        self.faulted_connections = 0
        # Values are whatever buffer the protocol layer received into
        # (bytes, bytearray, or a view thereof) — stored without copying.
        self._data: dict[str, Any] = {}
        # Topics, parked fetches and groups are touched exclusively from
        # the event-loop thread.
        self._topics: dict[str, TopicRing] = {}
        self._parked: dict[Any, list[_ParkedFetch]] = {}
        # Heap of (deadline, tiebreak, topic), one entry per parked fetch;
        # an entry whose fetch was answered early goes stale and is
        # dropped when its deadline comes.
        self._deadlines: list[tuple[float, int, Any]] = []
        self._park_ids = count()
        self._groups: dict[str, GroupState] = {}
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._loop_thread: threading.Thread | None = None
        self._wake_recv: socket.socket | None = None
        self._wake_send: socket.socket | None = None
        self._conns: dict[socket.socket, _ClientConn] = {}
        self._running = threading.Event()

    # -- lifecycle -------------------------------------------------------- #
    def start(self) -> tuple[str, int]:
        """Bind, listen and start the event loop; returns (host, port)."""
        if self._running.is_set():
            return (self.host, self.port or 0)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, 'listener')
        self._selector.register(self._wake_recv, selectors.EVENT_READ, 'wake')
        self._running.set()
        self._loop_thread = threading.Thread(
            target=self._serve_loop, name='simkv-loop', daemon=True,
        )
        self._loop_thread.start()
        return (self.host, self.port)

    def stop(self) -> None:
        """Drain in-flight requests, then close every connection.

        New connections are refused immediately; requests whose bytes have
        already reached the server are still answered and queued response
        bytes are flushed, bounded by ``drain_timeout``.
        """
        if not self._running.is_set():
            return
        self._running.clear()
        if self._wake_send is not None:
            try:
                self._wake_send.send(b'\x00')
            except OSError:  # pragma: no cover - loop already gone
                pass
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=self.drain_timeout + 2)
        with self._lock:
            self._data.clear()

    @property
    def running(self) -> bool:
        """Whether the event loop is serving (between ``start`` and ``stop``)."""
        return self._running.is_set()

    def __enter__(self) -> 'KVServer':
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    # -- event loop -------------------------------------------------------- #
    def _serve_loop(self) -> None:
        selector = self._selector
        assert selector is not None
        draining = False
        drain_deadline = 0.0
        try:
            while True:
                if draining:
                    if time.monotonic() >= drain_deadline:
                        break
                    events = selector.select(timeout=0.02)
                    if not events and not any(c.out for c in self._conns.values()):
                        break  # quiet pass with nothing left to flush: drained
                else:
                    # Sleep until a socket is ready or a parked fetch is due.
                    events = selector.select(
                        self._expire_parked() if self._deadlines else None,
                    )
                for key, _mask in events:
                    if key.data == 'listener':
                        self._accept_ready()
                    elif key.data == 'wake':
                        self._drain_wake_pipe()
                        if not self._running.is_set() and not draining:
                            draining = True
                            drain_deadline = time.monotonic() + self.drain_timeout
                            self._close_listener()
                            for topic in list(self._parked):
                                self._release(topic, lambda fetch: True)
                    else:
                        # Fault isolation: a malformed frame or per-request
                        # failure kills only the offending connection — the
                        # threaded server confined such errors to one client
                        # thread and the event loop must do no worse.
                        try:
                            self._service_conn(key.data, _mask)
                        except Exception:  # noqa: BLE001
                            self.faulted_connections += 1
                            self._close_conn(key.data)
        finally:
            self._running.clear()
            self._teardown()

    def _accept_ready(self) -> None:
        assert self._listener is not None and self._selector is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed during shutdown
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _ClientConn(sock)
            self._conns[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _drain_wake_pipe(self) -> None:
        assert self._wake_recv is not None
        while True:
            try:
                if not self._wake_recv.recv(4096):
                    return
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover - torn down concurrently
                return

    def _close_listener(self) -> None:
        if self._listener is None:
            return
        try:
            assert self._selector is not None
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - platform dependent
            pass

    def _service_conn(self, conn: _ClientConn, mask: int) -> None:
        """Flush what is queued for ``conn``, then answer what it sent."""
        if mask & selectors.EVENT_WRITE and not self._flush(conn):
            self._close_conn(conn)
            return
        if mask & selectors.EVENT_READ:
            messages, closed = conn.decoder.read_from(conn.sock)
            for request in messages:
                reply = self._handle(request, conn)
                if reply is not None and not self._send(conn, *_encode_frame(reply)):
                    closed = True
            if closed:
                self._close_conn(conn)
                return
        if conn.out or conn.writing:
            self._update_interest(conn)

    def _send(self, conn: _ClientConn, segments: list, size: int) -> bool:
        """Send a reply straight away; queue only what the kernel left.

        With nothing queued ahead of it the frame (``segments``, ``size``
        bytes in all) goes out in one ``sendmsg`` of at most ``IOV_MAX``
        segments, and only an unsent tail reaches ``conn.out`` (the
        selector then reports the socket writable when there is room).
        Returns False when the connection failed and must be closed.
        """
        if not conn.out:
            try:
                sent = conn.sock.sendmsg(
                    segments if len(segments) <= IOV_MAX else segments[:IOV_MAX],
                )
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                return False
            if sent == size:
                return True
            segments = unsent(segments, sent)
        conn.out.extend(segments)
        return True

    def _flush(self, conn: _ClientConn) -> bool:
        """Write queued segments until empty or the socket would block.

        Returns False when the connection failed and must be closed.
        """
        out = conn.out
        while out:
            batch = list(islice(out, 0, IOV_MAX))
            try:
                sent = conn.sock.sendmsg(batch)
            except (BlockingIOError, InterruptedError):
                return True
            except OSError:
                return False
            while sent:
                head = out[0]
                if sent >= len(head):
                    sent -= len(head)
                    out.popleft()
                else:
                    out[0] = head[sent:]
                    sent = 0
        return True

    def _update_interest(self, conn: _ClientConn) -> None:
        writing = bool(conn.out)
        if writing != conn.writing:
            conn.writing = writing
            wanted = selectors.EVENT_READ
            if writing:
                wanted |= selectors.EVENT_WRITE
            assert self._selector is not None
            self._selector.modify(conn.sock, wanted, conn)

    def _close_conn(self, conn: _ClientConn) -> None:
        assert self._selector is not None
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        for topic, parked in list(self._parked.items()):
            kept = [fetch for fetch in parked if fetch.conn is not conn]
            if kept:
                self._parked[topic] = kept
            else:
                del self._parked[topic]
        self._conns.pop(conn.sock, None)
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - platform dependent
            pass

    def _teardown(self) -> None:
        self._close_listener()
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        self._topics.clear()
        self._parked.clear()
        self._deadlines.clear()
        self._groups.clear()
        if self._selector is not None:
            self._selector.close()
        for wake in (self._wake_recv, self._wake_send):
            if wake is not None:
                try:
                    wake.close()
                except OSError:  # pragma: no cover - platform dependent
                    pass
        self._wake_recv = self._wake_send = None
        self._selector = None
        self._listener = None

    # -- command handling --------------------------------------------------- #
    @staticmethod
    def _own_value(value: Any) -> 'bytes | bytearray | memoryview | tuple | None':
        """A ``SET``/``MSET``/``PUBLISH``/``MPUBLISH``/``REPL_PUBLISH``
        payload in the shape the server keeps it, without a copy.

        Clients send a payload as a list of out-of-band segments: views over
        memory the decoder received them into, fresh and owned by this
        server alone.  One non-empty segment is kept as that buffer; several
        are kept as the tuple of the buffers received, never joined
        (:func:`_wire_value` sends them back the same way).  ``None`` for
        anything but a list of ``bytes``/``bytearray``/``memoryview``.
        """
        if not isinstance(value, list):
            return None
        segments = []
        for segment in value:
            if not isinstance(segment, (bytes, bytearray, memoryview)):
                return None
            if len(segment):
                segments.append(segment)
        if len(segments) > 1:
            return tuple(segments)
        return segments[0] if segments else b''

    def _handle(self, request: Any, conn: _ClientConn) -> tuple[Any, str, Any] | None:
        """Execute one request; returns the ``(request_id, status, payload)``.

        Requests are ``(request_id, command, key, value)``; any other
        shape is answered *malformed request* with a ``None`` request id.
        The command picks its handler from :attr:`_HANDLERS` in one
        lookup (a second one, upper-cased, if the first misses).  ``conn``
        is the issuing connection.  A ``FETCH`` that parks returns
        ``None``: its reply is sent later, by :meth:`_release`.
        """
        try:
            request_id, command, key, value = request
        except (TypeError, ValueError):
            return (None, 'error', f'malformed request: {request!r}')
        try:
            try:
                handler = self._HANDLERS[command]
            except (KeyError, TypeError):
                # Not spelled as listed: normalise, then look again.
                command = str(command).upper()
                handler = self._HANDLERS.get(command)
                if handler is None:
                    return (request_id, 'error', f'unknown command {command!r}')
            status, payload = handler(self, key, value, conn)
        # repro: ignore[RP004] - not swallowed: the failure is returned
        # to the client as an error response
        except Exception as e:  # noqa: BLE001 - one bad request must not
            # take down the connection (let alone the event loop).
            status, payload = 'error', f'internal error: {e!r}'
        if status is _PARKED:
            payload.request_id = request_id
            self._parked.setdefault(key, []).append(payload)
            heapq.heappush(self._deadlines, (payload.deadline, next(self._park_ids), key))
            return None
        return (request_id, status, payload)

    # -- key-value commands ---------------------------------------------------- #
    def _cmd_ping(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        return ('ok', 'PONG')

    def _cmd_set(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        data = self._own_value(value)
        if data is None:
            return ('error', 'SET value must be bytes')
        with self._lock:
            self._data[key] = data
        return ('ok', True)

    def _cmd_get(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        with self._lock:
            data = self._data.get(key)
        return ('ok', _wire_value(data))

    def _cmd_mset(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        if not isinstance(value, list):
            return ('error', 'MSET value must be a list of (key, value) pairs')
        owned = []
        for entry in value:
            try:
                entry_key, entry_value = entry
            except (TypeError, ValueError):
                return ('error', f'malformed MSET entry: {entry!r}')
            data = self._own_value(entry_value)
            if data is None:
                return ('error', 'MSET values must be bytes')
            owned.append((entry_key, data))
        with self._lock:
            for entry_key, data in owned:
                self._data[entry_key] = data
        return ('ok', True)

    def _cmd_mget(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        if not isinstance(value, list):
            return ('error', 'MGET value must be a list of keys')
        with self._lock:
            datas = [self._data.get(k) for k in value]
        return ('ok', [_wire_value(d) for d in datas])

    def _cmd_mdel(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        if not isinstance(value, list):
            return ('error', 'MDEL value must be a list of keys')
        with self._lock:
            removed = sum(1 for k in value if self._data.pop(k, None) is not None)
        return ('ok', removed)

    def _cmd_exists(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        with self._lock:
            return ('ok', key in self._data)

    def _cmd_keys(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        # Key enumeration for the cluster rebalancer: names only (no
        # payload bytes), so even a full node answers in one small frame.
        with self._lock:
            return ('ok', list(self._data))

    def _cmd_del(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        with self._lock:
            return ('ok', self._data.pop(key, None) is not None)

    def _cmd_flush(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        with self._lock:
            count = len(self._data)
            self._data.clear()
        return ('ok', count)

    def _cmd_size(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        with self._lock:
            return ('ok', len(self._data))

    # -- pub/sub (stream event transport, see repro.stream.kv) ----------------- #
    # Topics live on the loop thread only.  The ring itself is a
    # :class:`~repro.kvserver.broker.TopicRing`; what stays here is the
    # server's own: checking what arrived from the wire, out-of-band
    # payload wrapping, and parked fetches.
    def _topic(self, name: Any) -> TopicRing:
        """Return (creating on first use) the broker state for ``name``.

        Only a write makes a ring — ``PUBLISH``, ``MPUBLISH``,
        ``REPL_PUBLISH``, a ``TCONFIG`` that sets ``retention`` — so a
        reader asking about made-up names grows no broker state.
        """
        topic = self._topics.get(name)
        if topic is None:
            topic = self._topics[name] = TopicRing(self.stream_retention)
        return topic

    def _release(self, key: Any, due: Callable[[_ParkedFetch], bool]) -> None:
        """Answer the fetches parked on topic ``key`` for which ``due`` holds."""
        parked = self._parked.pop(key, None)
        if not parked:
            return
        ready, kept = [], []
        for fetch in parked:
            (ready if due(fetch) else kept).append(fetch)
        if kept:
            self._parked[key] = kept
        topic = self._topics.get(key)
        for fetch in ready:
            conn = fetch.conn
            if self._conns.get(conn.sock) is not conn:
                continue  # an earlier failed reply closed its connection
            reply = (fetch.request_id, 'ok', _fetch_reply(topic, fetch.since, fetch.limit))
            if self._send(conn, *_encode_frame(reply)):
                self._update_interest(conn)
            else:
                self._close_conn(conn)

    def _expire_parked(self) -> float | None:
        """Answer the parked fetches whose wait is over.

        Returns the seconds until the next parked deadline (``None``:
        nothing is parked), the loop's select timeout.
        """
        deadlines = self._deadlines
        if not deadlines:
            return None
        now = time.monotonic()
        due = set()
        while deadlines and deadlines[0][0] <= now:
            due.add(heapq.heappop(deadlines)[2])
        for key in due:
            self._release(key, lambda fetch: fetch.deadline <= now)
        return deadlines[0][0] - now if deadlines else None

    def _cmd_publish(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        payload = self._own_value(value)
        if payload is None:
            return ('error', 'PUBLISH payload must be bytes')
        topic = self._topic(key)
        seq = topic.append(payload)
        self._release(key, lambda fetch: fetch.since < topic.next_seq)
        return ('ok', seq)

    def _cmd_mpublish(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        if not isinstance(value, list):
            return ('error', 'MPUBLISH value must be a list of payloads')
        payloads = []
        for entry in value:
            payload = self._own_value(entry)
            if payload is None:
                return ('error', 'MPUBLISH payloads must be bytes')
            payloads.append(payload)
        topic = self._topic(key)
        seqs = [topic.append(p) for p in payloads]
        self._release(key, lambda fetch: fetch.since < topic.next_seq)
        return ('ok', seqs)

    def _cmd_fetch(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        options = value if isinstance(value, dict) else {}
        since = options.get('since', 0)
        limit = options.get('max_events', 0)
        wait = options.get('wait', 0)
        if not all(isinstance(n, int) and n >= 0 for n in (since, limit)):
            return ('error', 'FETCH since and max_events must be ints >= 0')
        if not (isinstance(wait, (int, float)) and 0 <= wait <= MAX_FETCH_WAIT):
            return ('error', f'FETCH wait must be seconds in [0, {MAX_FETCH_WAIT}]')
        topic = self._topics.get(key)
        next_seq = 0 if topic is None else topic.next_seq
        if wait and next_seq <= since and self._running.is_set():
            # Nothing at or past since: the next publish here answers it,
            # or its deadline does (a draining server answers at once).
            return (_PARKED, _ParkedFetch(conn, None, since, limit, time.monotonic() + wait))
        return ('ok', _fetch_reply(topic, since, limit))

    def _cmd_tconfig(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        options = value if isinstance(value, dict) else {}
        retention = options.get('retention')
        if retention is not None:
            try:
                TopicRing.check_retention(retention)
            except ValueError as e:
                return ('error', str(e))
            self._topic(key).set_retention(retention)
        topic = self._topics.get(key)
        return ('ok', {
            'retention': self.stream_retention if topic is None else topic.retention,
        })

    def _cmd_tstats(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        topic = self._topics.get(key)
        return ('ok', None if topic is None else topic.stats())

    # -- consumer groups (see repro.stream.groups) ------------------------------ #
    def _group(self, name: Any) -> GroupState:
        """Return (creating on first use) the group state for ``name``."""
        group = self._groups.get(name)
        if group is None:
            group = self._groups[name] = GroupState()
        return group

    def _cmd_group(
        self,
        key: Any,
        value: Any,
        conn: _ClientConn,
        *,
        command: str,
    ) -> tuple[str, Any]:
        """Handle one consumer-group command (state lives on the loop thread).

        Membership with heartbeat-timeout expiry plus per-partition
        committed offsets and delivered watermarks, all held by the group's
        designated broker: runs the command on the group's
        :class:`~repro.kvserver.broker.GroupState`, which also checks what
        arrived from the wire.
        """
        options = value if isinstance(value, dict) else {}
        try:
            return ('ok', self._group(key).execute(command, options, time.monotonic()))
        except GroupMembershipError:
            member = str(options.get('member', ''))
            return ('error', f'{UNKNOWN_MEMBER} {member!r}')
        except ConnectorError as e:
            return ('error', str(e))

    # -- replication (broker failover, see repro.stream.groups) ----------------- #
    # Clients mirror a partition topic's retention ring and the group
    # coordinator's state onto the hash-ring successor brokers, so a replica
    # can take over with the same sequence numbering and committed offsets
    # when the primary dies.
    def _cmd_repl_publish(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        """Insert events *with explicit sequence numbers* into ``key``'s ring.

        Idempotent and reorder-tolerant; newly retained events answer the
        fetches parked here — so a subscriber that failed over to this
        replica keeps receiving events even while producers still publish
        via the primary.
        """
        if not isinstance(value, list):
            return ('error', 'REPL_PUBLISH value must be [(seq, payload), ...]')
        entries = []
        for entry in value:
            try:
                seq, raw = entry
            except (TypeError, ValueError):
                return ('error', f'malformed REPL_PUBLISH entry: {entry!r}')
            if not (isinstance(seq, int) and seq >= 0):
                return ('error', 'REPL_PUBLISH seq must be an int >= 0')
            payload = self._own_value(raw)
            if payload is None:
                return ('error', 'REPL_PUBLISH payloads must be bytes')
            entries.append((seq, payload))
        topic = self._topic(key)
        accepted = sum(topic.append_at(seq, payload) for seq, payload in entries)
        self._release(key, lambda fetch: fetch.since < topic.next_seq)
        return ('ok', {'accepted': accepted, 'next_seq': topic.next_seq})

    def _cmd_repl_group(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        """Replay a mirrored group command leniently (see
        :meth:`~repro.kvserver.broker.GroupState.apply_delta`), so mirrored
        commands may arrive late, duplicated, or out of order without
        corrupting the replica's view.
        """
        options = value if isinstance(value, dict) else {}
        try:
            return ('ok', self._group(key).apply_delta(options, time.monotonic()))
        except ConnectorError as e:
            return ('error', str(e))

    #: Command → handler ``(self, key, value, conn) -> (status, payload)``:
    #: the one list of the commands the server understands.
    _HANDLERS = {
        'PING': _cmd_ping,
        'SET': _cmd_set,
        'GET': _cmd_get,
        'MSET': _cmd_mset,
        'MGET': _cmd_mget,
        'MDEL': _cmd_mdel,
        'EXISTS': _cmd_exists,
        'KEYS': _cmd_keys,
        'DEL': _cmd_del,
        'FLUSH': _cmd_flush,
        'SIZE': _cmd_size,
        'PUBLISH': _cmd_publish,
        'MPUBLISH': _cmd_mpublish,
        'FETCH': _cmd_fetch,
        'TCONFIG': _cmd_tconfig,
        'TSTATS': _cmd_tstats,
        'GROUP_JOIN': partial(_cmd_group, command='GROUP_JOIN'),
        'GROUP_LEAVE': partial(_cmd_group, command='GROUP_LEAVE'),
        'GROUP_HEARTBEAT': partial(_cmd_group, command='GROUP_HEARTBEAT'),
        'OFFSET_COMMIT': partial(_cmd_group, command='OFFSET_COMMIT'),
        'OFFSET_FETCH': partial(_cmd_group, command='OFFSET_FETCH'),
        'GROUP_STATS': partial(_cmd_group, command='GROUP_STATS'),
        'REPL_PUBLISH': _cmd_repl_publish,
        'REPL_GROUP': _cmd_repl_group,
    }


# Process-local registry of servers started implicitly by connectors so that
# repeated RedisConnector(...) construction with the same address reuses one
# server rather than racing to bind the port.
_LAUNCHED: dict[tuple[str, int], KVServer] = {}
_LAUNCH_LOCK = threading.Lock()


def launch_server(host: str = '127.0.0.1', port: int = 0) -> KVServer:
    """Start (or return an already-started) SimKV server on ``host:port``.

    With ``port=0`` a new server on an ephemeral port is always created.
    """
    with _LAUNCH_LOCK:
        if port != 0:
            existing = _LAUNCHED.get((host, port))
            if existing is not None and existing.running:
                return existing
        server = KVServer(host, port)
        server.start()
        assert server.port is not None
        _LAUNCHED[(host, server.port)] = server
        return server
