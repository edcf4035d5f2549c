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
queued for the loop to flush.  The dead-subscriber reaper runs once per
loop tick.

Shutdown drains: :meth:`KVServer.stop` closes the listener, keeps the loop
running until every already-received request has been answered and every
queued response byte flushed (bounded by ``drain_timeout``), and only then
closes the client connections.

Beyond plain key-value storage the server is also a **pub/sub event
broker** (the transport behind :class:`repro.stream.KVEventBus`):
``PUBLISH`` appends an opaque payload to a per-topic ring buffer (bounded
by a configurable retention) and fans it out to every connection that
``SUBSCRIBE``-d to the topic as an unsolicited ``EVENT`` frame.  A slow
subscriber whose outgoing queue exceeds ``push_highwater`` bytes stops
receiving pushes (the events stay in the ring; the client notices the
sequence gap and issues a ``FETCH`` to catch up), so neither the ring nor
any per-connection queue grows without bound.  What the broker remembers
— topic rings, consumer-group leases and offsets — is the pure state of
:mod:`repro.kvserver.broker`, shared with the in-process bus; this module
adds the wire: input checks, payload wrapping, push fan-out.
"""
from __future__ import annotations

import pickle
import selectors
import socket
import threading
import time
from collections import deque
from functools import partial
from itertools import islice
from typing import Any

from repro.exceptions import GroupMembershipError
from repro.kvserver.broker import DEFAULT_SESSION_TIMEOUT
from repro.kvserver.broker import GroupState
from repro.kvserver.broker import TopicRing
from repro.kvserver.protocol import EVENT_STATUS
from repro.kvserver.protocol import UNKNOWN_MEMBER
from repro.kvserver.protocol import StreamDecoder
from repro.kvserver.protocol import encode_message
from repro.serialize.buffers import IOV_MAX
from repro.serialize.buffers import unsent

__all__ = ['DEFAULT_RETENTION', 'KVServer', 'launch_server']

#: Default per-topic ring-buffer retention (events kept for catch-up).
DEFAULT_RETENTION = 256

#: Queued-but-unsent bytes on a subscriber connection above which event
#: pushes are skipped (the subscriber catches up from the ring instead).
DEFAULT_PUSH_HIGHWATER = 8 * 1024 * 1024

#: Events per pushed ``EVENT`` frame when replaying a backlog.
_PUSH_BATCH = 64

#: Seconds a subscriber connection may sit with queued push bytes and make
#: no read/write progress before the server reaps it (frees its buffers).
DEFAULT_SUBSCRIBER_TIMEOUT = 30.0


class _ClientConn:
    """Per-connection state tracked by the event loop."""

    __slots__ = (
        'sock', 'decoder', 'out', 'events', 'queued_bytes', 'topics',
        'last_progress',
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = StreamDecoder()
        #: Outgoing wire segments not yet accepted by the kernel.
        self.out: deque[memoryview] = deque()
        #: Currently registered selector interest mask.
        self.events = selectors.EVENT_READ
        #: Bytes in ``out`` not yet accepted by the kernel (push backpressure).
        self.queued_bytes = 0
        #: Topics this connection has subscribed to.
        self.topics: set[str] = set()
        #: Monotonic timestamp of the last read or write progress — the
        #: dead-subscriber reaper's liveness signal.
        self.last_progress = time.monotonic()


class _PushedTopic(TopicRing):
    """A topic ring plus the connections its events are pushed to."""

    __slots__ = ('name', 'subscribers', 'dropped_pushes', 'reaped_subscribers')

    def __init__(self, name: str, retention: int) -> None:
        super().__init__(retention)
        self.name = name
        self.subscribers: set[_ClientConn] = set()
        #: Pushes skipped because a subscriber was over the highwater mark.
        self.dropped_pushes = 0
        #: Subscriber connections reaped by the no-progress sweep.
        self.reaped_subscribers = 0

    def stats(self) -> dict[str, int]:
        """The ring's counters plus the connection-level ones."""
        return {
            **super().stats(),
            'subscribers': len(self.subscribers),
            'dropped_pushes': self.dropped_pushes,
            'reaped_subscribers': self.reaped_subscribers,
        }


def _wire_events(events: list) -> list:
    """``(seq, payload)`` pairs with payloads wrapped to travel out of band."""
    return [
        (seq, pickle.PickleBuffer(payload) if len(payload) else payload)
        for seq, payload in events
    ]


class KVServer:
    """In-memory key-value store and pub/sub event broker reachable over TCP.

    Args:
        host: interface to bind (default loopback).
        port: TCP port; ``0`` picks a free ephemeral port.
        drain_timeout: maximum seconds :meth:`stop` keeps serving to drain
            in-flight requests and flush queued responses.
        stream_retention: default per-topic ring-buffer size (events kept
            for subscriber catch-up); ``TCONFIG`` overrides it per topic.
        push_highwater: queued outgoing bytes on a subscriber connection
            above which event pushes are skipped (backpressure bound).
        subscriber_timeout: seconds a subscriber connection may hold queued
            push bytes without any read/write progress before the server
            reaps it — a dead push connection must not pin
            ``push_highwater`` bytes per topic forever.
    """

    def __init__(
        self,
        host: str = '127.0.0.1',
        port: int = 0,
        *,
        drain_timeout: float = 5.0,
        stream_retention: int = DEFAULT_RETENTION,
        push_highwater: int = DEFAULT_PUSH_HIGHWATER,
        subscriber_timeout: float = DEFAULT_SUBSCRIBER_TIMEOUT,
    ) -> None:
        if stream_retention < 1:
            raise ValueError('stream_retention must be at least 1')
        if subscriber_timeout <= 0:
            raise ValueError('subscriber_timeout must be positive')
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.drain_timeout = drain_timeout
        self.stream_retention = stream_retention
        self.push_highwater = push_highwater
        self.subscriber_timeout = subscriber_timeout
        #: Subscriber connections closed by the no-progress reaper.
        self.reaped_subscribers = 0
        #: Connections closed because servicing them raised (fault
        #: isolation events — the per-connection failures the event loop
        #: deliberately survives).
        self.faulted_connections = 0
        # Values are whatever buffer the protocol layer received into
        # (bytes, bytearray, or a view thereof) — stored without copying.
        self._data: dict[str, Any] = {}
        # Topics and groups are touched exclusively from the event-loop
        # thread.
        self._topics: dict[str, _PushedTopic] = {}
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
        # Bounded select so the dead-subscriber reaper runs even when no
        # socket is active; fine-grained enough for short test timeouts.
        # The reaper walks every connection, so it runs once per tick, not
        # after every select of a busy loop.
        tick = min(1.0, self.subscriber_timeout / 4)
        next_reap = time.monotonic() + tick
        try:
            while True:
                if draining:
                    if time.monotonic() >= drain_deadline:
                        break
                    events = selector.select(timeout=0.02)
                    if not events and not any(c.out for c in self._conns.values()):
                        break  # quiet pass with nothing left to flush: drained
                else:
                    events = selector.select(timeout=tick)
                    now = time.monotonic()
                    if now >= next_reap:
                        self._reap_stalled_subscribers()
                        next_reap = now + tick
                for key, _mask in events:
                    if key.data == 'listener':
                        self._accept_ready()
                    elif key.data == 'wake':
                        self._drain_wake_pipe()
                        if not self._running.is_set() and not draining:
                            draining = True
                            drain_deadline = time.monotonic() + self.drain_timeout
                            self._close_listener()
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

    def _enqueue(self, conn: _ClientConn, segments: list[memoryview]) -> None:
        """Queue wire segments on ``conn``, tracking queued byte counts."""
        conn.out.extend(segments)
        conn.queued_bytes += sum(len(segment) for segment in segments)

    def _reap_stalled_subscribers(self) -> None:
        """Close subscriber connections holding push bytes with no progress.

        A subscriber that stops reading (a crashed-but-connected consumer,
        a host that vanished without a TCP reset) keeps its queued ``EVENT``
        frames pinned in ``out`` forever — up to ``push_highwater`` bytes
        per topic.  Any connection that is subscribed, has queued bytes,
        and has made no read/write progress for ``subscriber_timeout``
        seconds is reaped: the close frees its buffers and unsubscribes it
        from every topic (counted per topic in ``reaped_subscribers``).
        """
        cutoff = time.monotonic() - self.subscriber_timeout
        stalled = [
            conn
            for conn in self._conns.values()
            if conn.topics and conn.queued_bytes and conn.last_progress < cutoff
        ]
        for conn in stalled:
            self.reaped_subscribers += 1
            for topic_name in conn.topics:
                topic = self._topics.get(topic_name)
                if topic is not None:
                    topic.reaped_subscribers += 1
            self._close_conn(conn)

    def _service_conn(self, conn: _ClientConn, mask: int) -> None:
        closed = False
        if mask & selectors.EVENT_READ:
            messages, closed = conn.decoder.read_from(conn.sock)
            if messages:
                conn.last_progress = time.monotonic()
            for request in messages:
                if not self._send(conn, encode_message(self._handle(request, conn))):
                    closed = True
        if conn.out:
            # Optimistic flush: most responses fit the socket buffer, so
            # this usually completes without a round through the selector.
            if not self._flush(conn):
                closed = True
        if closed:
            self._close_conn(conn)
        else:
            self._update_interest(conn)

    def _send(self, conn: _ClientConn, segments: list[memoryview]) -> bool:
        """Send a reply straight away; queue only what the kernel left.

        With nothing queued ahead of it the frame goes out in one
        ``sendmsg`` of at most ``IOV_MAX`` segments, and only an unsent
        tail reaches ``conn.out``.  (The receive that brought the request
        already counted as progress for the reaper.)  Returns False when
        the connection failed and must be closed.
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
            segments = unsent(segments, sent)
        if segments:
            self._enqueue(conn, segments)
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
            conn.queued_bytes -= sent
            if sent:
                conn.last_progress = time.monotonic()
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
        wanted = selectors.EVENT_READ
        if conn.out:
            wanted |= selectors.EVENT_WRITE
        if wanted != conn.events:
            conn.events = wanted
            assert self._selector is not None
            self._selector.modify(conn.sock, wanted, conn)

    def _close_conn(self, conn: _ClientConn) -> None:
        assert self._selector is not None
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        for topic_name in conn.topics:
            topic = self._topics.get(topic_name)
            if topic is not None:
                topic.subscribers.discard(conn)
        conn.topics.clear()
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
    def _own_value(value: Any) -> 'bytes | bytearray | memoryview | None':
        """Normalize a SET payload into a buffer the server can own.

        Clients send payloads as a list of out-of-band buffer segments
        (views over the bytearrays the protocol layer received into — fresh
        memory this server exclusively owns, so single segments are stored
        without a copy).  Plain ``bytes``/``bytearray`` values are accepted
        for backward compatibility.
        """
        if isinstance(value, (bytes, bytearray)):
            return value
        if isinstance(value, list):
            segments = [v for v in value if len(v)]
            if not segments:
                return b''
            if len(segments) == 1:
                return segments[0]
            return b''.join(segments)
        return None

    def _handle(self, request: Any, conn: _ClientConn) -> tuple[Any, str, Any]:
        """Execute one request; returns the ``(request_id, status, payload)``.

        Requests are ``(request_id, command, key, value)``; any other
        shape is answered *malformed request* with a ``None`` request id.
        The command picks its handler from :attr:`_HANDLERS` in one
        lookup.  ``conn`` is the issuing connection — pub/sub commands
        bind subscriptions to it and fan pushes out from it.
        """
        try:
            request_id, command, key, value = request
        except (TypeError, ValueError):
            return (None, 'error', f'malformed request: {request!r}')
        try:
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
        # Out-of-band response: the payload bytes bypass the pickle
        # stream and go straight from storage to the socket.
        return ('ok', pickle.PickleBuffer(data) if data else data)

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
        return ('ok', [pickle.PickleBuffer(d) if d else d for d in datas])

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
    # payload wrapping, and push fan-out.
    def _topic(self, name: Any) -> _PushedTopic:
        """Return (creating on first use) the broker state for ``name``."""
        topic = self._topics.get(name)
        if topic is None:
            topic = self._topics[name] = _PushedTopic(
                str(name), self.stream_retention,
            )
        return topic

    def _push_events(self, topic: _PushedTopic, events: list) -> None:
        """Fan ``(seq, payload)`` pairs out to the topic's subscribers.

        A subscriber whose queued outgoing bytes exceed ``push_highwater``
        is skipped (counted in ``dropped_pushes``): the events remain in the
        ring buffer and the client catches up with a ``FETCH`` when it
        notices the sequence gap.  Pushes go through the same non-blocking
        flush as responses, so a slow socket never stalls the loop.
        """
        if not events or not topic.subscribers:
            return
        # Encode the frame once and share its segments across subscribers:
        # the segments are read-only views and _flush never mutates them
        # (partial sends reslice into fresh views), so fan-out costs one
        # pickle regardless of the subscriber count.
        segments = encode_message(
            (None, EVENT_STATUS, (topic.name, _wire_events(events))),
        )
        for conn in list(topic.subscribers):
            if conn.queued_bytes > self.push_highwater:
                topic.dropped_pushes += len(events)
                continue
            self._enqueue(conn, segments)
            if not self._flush(conn):
                self._close_conn(conn)
            else:
                self._update_interest(conn)

    def _cmd_publish(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        payload = self._own_value(value)
        if payload is None:
            return ('error', 'PUBLISH payload must be bytes')
        topic = self._topic(key)
        seq = topic.append(payload)
        self._push_events(topic, [(seq, payload)])
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
        self._push_events(topic, list(zip(seqs, payloads)))
        return ('ok', seqs)

    def _cmd_subscribe(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        options = value if isinstance(value, dict) else {}
        topic = self._topic(key)
        topic.subscribers.add(conn)
        conn.topics.add(topic.name)
        from_seq = options.get('from_seq')
        lost = 0
        if from_seq is not None:
            # Replay the retained backlog in bounded frames.  These are
            # enqueued before the SUBSCRIBE reply (responses are sent by
            # _service_conn after _handle returns, behind anything queued),
            # so clients must accept EVENT frames ahead of the subscribe
            # confirmation.
            backlog, lost = topic.since(int(from_seq))
            for start in range(0, len(backlog), _PUSH_BATCH):
                chunk = _wire_events(backlog[start:start + _PUSH_BATCH])
                self._enqueue(
                    conn,
                    encode_message((None, EVENT_STATUS, (topic.name, chunk))),
                )
        return ('ok', {'next_seq': topic.next_seq, 'lost': lost})

    def _cmd_unsubscribe(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        topic = self._topics.get(key)
        if topic is not None:
            topic.subscribers.discard(conn)
        conn.topics.discard(str(key))
        return ('ok', True)

    def _cmd_fetch(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        options = value if isinstance(value, dict) else {}
        topic = self._topic(key)
        events, lost = topic.since(
            int(options.get('since', 0)),
            int(options.get('max_events', 0)) or None,
        )
        return ('ok', {
            'events': _wire_events(events),
            'next_seq': topic.next_seq,
            'lost': lost,
        })

    def _cmd_tconfig(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        options = value if isinstance(value, dict) else {}
        topic = self._topic(key)
        retention = options.get('retention')
        if retention is not None:
            try:
                topic.set_retention(int(retention))
            except ValueError as e:
                return ('error', str(e))
        return ('ok', {'retention': topic.retention})

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
        designated broker: checks what arrived from the wire, then runs the
        command on the group's :class:`~repro.kvserver.broker.GroupState`.
        """
        options = value if isinstance(value, dict) else {}
        member = str(options.get('member', ''))
        if command == 'GROUP_JOIN':
            if not member:
                return ('error', 'GROUP_JOIN requires a member id')
            timeout = options.get('session_timeout') or DEFAULT_SESSION_TIMEOUT
            if float(timeout) <= 0:
                return ('error', 'session_timeout must be positive')
        elif command == 'OFFSET_COMMIT':
            if not isinstance(options.get('offsets'), dict):
                return ('error', 'OFFSET_COMMIT requires an offsets dict')
        elif command == 'OFFSET_FETCH':
            if not isinstance(options.get('topics'), (list, tuple)):
                return ('error', 'OFFSET_FETCH requires a topics list')
        try:
            return ('ok', self._group(key).execute(command, options, time.monotonic()))
        except GroupMembershipError:
            return ('error', f'{UNKNOWN_MEMBER} {member!r}')

    # -- replication (broker failover, see repro.stream.failover) --------------- #
    # Clients mirror a partition topic's retention ring and the group
    # coordinator's state onto the hash-ring successor brokers, so a replica
    # can take over with the same sequence numbering and committed offsets
    # when the primary dies.
    def _cmd_repl_publish(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        """Insert events *with explicit sequence numbers* into ``key``'s ring.

        Idempotent and reorder-tolerant; the newly retained events fan out
        to any subscribers already attached here — so a subscriber that
        failed over to this replica keeps receiving live pushes even while
        producers still publish via the primary.
        """
        if not isinstance(value, list):
            return ('error', 'REPL_PUBLISH value must be [(seq, payload), ...]')
        topic = self._topic(key)
        accepted = []
        for entry in value:
            try:
                seq, raw = entry
            except (TypeError, ValueError):
                return ('error', f'malformed REPL_PUBLISH entry: {entry!r}')
            payload = self._own_value(raw)
            if payload is None:
                return ('error', 'REPL_PUBLISH payloads must be bytes')
            if topic.append_at(int(seq), payload):
                accepted.append((int(seq), payload))
        self._push_events(topic, accepted)
        return ('ok', {'accepted': len(accepted), 'next_seq': topic.next_seq})

    def _cmd_repl_group(self, key: Any, value: Any, conn: _ClientConn) -> tuple[str, Any]:
        """Apply a coordinator-state delta leniently (see
        :meth:`~repro.kvserver.broker.GroupState.apply_delta`), so mirrored
        deltas may arrive late, duplicated, or out of order without
        corrupting the replica's view.
        """
        options = value if isinstance(value, dict) else {}
        return ('ok', self._group(key).apply_delta(options, time.monotonic()))

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
        'SUBSCRIBE': _cmd_subscribe,
        'UNSUBSCRIBE': _cmd_unsubscribe,
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
