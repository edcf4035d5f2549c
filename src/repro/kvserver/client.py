"""Pipelined, multiplexing client for the SimKV server.

Earlier revisions held one socket behind a lock, so every request paid a
full round trip before the next could start and N threads sharing a client
(the normal situation: one connector instance per Store) ran at 1/N of the
wire's capability.  This client removes that serialization:

* Every request carries a **request id**; whichever thread is receiving
  on the connection hands each response frame to the waiter registered
  under its id.  Many requests from many threads are therefore *in flight
  on one connection at once* — the send path only locks long enough to
  write the frame (the pickling happens outside the lock).
* **No thread per connection, no hand-off per request.**  The receiver is
  one of the requesters (leader/follower): after its send, a thread that
  finds the connection's receive role free takes it and reads the socket
  itself until its own reply arrives, passing on any reply that is not
  its own; a thread that finds the role taken waits for the leader to
  deliver; a leader that leaves wakes one remaining waiter to take over.
  A lone requester therefore does ``sendmsg``, ``recv``, done — no
  context switch inside the client.  What it pays around those two calls
  is kept small too: it finds the receive role free and takes it before
  it sends, so it reads its own reply and needs no waiter; the only other
  lock it takes is the send lock; request id and pool slot come from
  lock-free counters; and a frame of at most ``IOV_MAX`` segments is one
  ``sendmsg``.  A requester that finds the role taken waits on a bare
  pre-acquired lock (not a ``threading.Event``).  The
  server sends nothing but replies, so nothing needs a reader thread: a
  stream subscriber's long-polling ``FETCH`` (:mod:`repro.stream.kv`) is
  one more request on a pooled connection.
* A small **connection pool** (``pool_size``) spreads requests round-robin
  across sockets, so a large transfer streaming down one connection does
  not head-of-line block small operations, and sharded transfers to one
  node get true parallel streams.
* A request that fails because a pooled connection went stale (the server
  restarted, an idle socket was torn down) is transparently **retried
  once** on a fresh connection — SimKV commands are idempotent, so a
  reconnectable failure no longer surfaces as a ``ConnectorError``.

Payload values are transmitted zero-copy: :meth:`KVClient.set` wraps the
payload's segments in :class:`pickle.PickleBuffer`, so the wire protocol
scatter/gathers them straight from the caller's memory without building an
intermediate copy.  Only a multi-segment payload smaller than
:data:`~repro.kvserver.protocol.READ_AHEAD_BYTES` is joined first: the
receiver copies a frame that small out of its read-ahead buffer anyway, and
one buffer is cheaper to store, send back and read than several.  ``get``
returns what was received without a defensive copy: a ``bytes``-like view,
or a :class:`~repro.serialize.buffers.SerializedObject` over the segments
of a payload the server keeps in pieces.
"""
from __future__ import annotations

import _thread
import itertools
import pickle
import socket
import struct
import threading
import time
from typing import Any
from typing import Iterable
from typing import Sequence

from repro.exceptions import ConnectorError
from repro.exceptions import GroupMembershipError
from repro.exceptions import NodeUnavailableError
from repro.kvserver.protocol import READ_AHEAD_BYTES
from repro.kvserver.protocol import StreamDecoder
from repro.kvserver.protocol import UNKNOWN_MEMBER
from repro.kvserver.protocol import _encode_frame
from repro.serialize.buffers import IOV_MAX
from repro.serialize.buffers import SerializedObject
from repro.serialize.buffers import payload_nbytes
from repro.serialize.buffers import segments_of
from repro.serialize.buffers import unsent
from repro.serialize.buffers import vectored_write

__all__ = ['DEFAULT_POOL_SIZE', 'DEFAULT_TIMEOUT', 'KVClient', 'open_connection']

#: Default number of pooled connections per client.  Two keeps small
#: operations flowing while a bulk transfer occupies the other socket;
#: sharded DIM transfers raise it per node for parallel streams.
DEFAULT_POOL_SIZE = 2

#: Default per-request inactivity bound (seconds), shared by every
#: connector that builds a :class:`KVClient`.
DEFAULT_TIMEOUT = 10.0


def _wrap_value(data: 'bytes | bytearray | memoryview | SerializedObject') -> list:
    """Payload segments wrapped for out-of-band transmission.

    Segments of a payload smaller than :data:`READ_AHEAD_BYTES` are joined
    into one buffer: the server would copy them out of its read-ahead
    scratch anyway, and it keeps (and sends back) what it received, so one
    buffer here saves every later reader the cost of several.  A larger
    payload goes out segment by segment, never joined.
    """
    if isinstance(data, (bytes, bytearray)):
        return [pickle.PickleBuffer(data)] if data else []  # one flat buffer
    segments = segments_of(data)
    if len(segments) > 1 and payload_nbytes(data) < READ_AHEAD_BYTES:
        segments = [b''.join(segments)]
    return [pickle.PickleBuffer(segment) for segment in segments]


def _received(value: Any) -> Any:
    """A stored value as ``get``, ``mget`` and ``fetch_events`` return it.

    The server sends a payload it keeps in pieces as a tuple of buffers;
    that becomes a :class:`SerializedObject`, which ``deserialize`` reads
    without joining.  One buffer (or ``None``) is returned as received.
    """
    return SerializedObject(value) if isinstance(value, tuple) else value


class _StaleConnectionError(NodeUnavailableError):
    """A connection died under a request (a pooled one is retried afresh)."""


class _Pending:
    """A waiter for one in-flight request sent while another thread led.

    Its wake-up is a bare lock the waiter holds from birth (a fraction of
    the cost of a ``threading.Event`` and the ``Condition`` inside it):
    :meth:`wait` blocks acquiring it, :meth:`wake` releases it.  A wake
    that comes before the wait is kept — the lock stays free until the
    wait takes it — so none is lost; a second wake before the wait is a
    no-op, so a waiter woken twice and then waiting again does not wake
    early; a wait that returns holds the lock again, ready for the next.
    It is a ``_thread`` lock, as ``threading.Condition``'s own waiter locks
    are: a wake-up signal that orders nothing, so a lock-order witness
    patching ``threading.Lock`` must not count it as held.
    """

    __slots__ = ('_wake', 'result', 'error')

    def __init__(self) -> None:
        self._wake = _thread.allocate_lock()
        self._wake.acquire()
        self.result: tuple[Any, Any] | None = None
        self.error: Exception | None = None

    def wake(self) -> None:
        """Let :meth:`wait` return (now, or at once when it is next called)."""
        try:
            self._wake.release()
        except RuntimeError:
            pass  # already woken and not yet waited on: one wake is kept

    def wait(self, timeout: float | None) -> None:
        """Block until woken or ``timeout`` seconds pass (``None``: forever)."""
        self._wake.acquire(True, -1 if timeout is None else timeout)


class _Connection:
    """One client socket: a send lock, a receive role, and in-flight waiters.

    One thread at a time receives; it dispatches each ``(request_id,
    status, payload)`` response to the matching waiter.  Sends are
    serialized by ``_send_lock`` but *responses are not awaited under it*,
    which is what allows pipelining.  No thread is started: the receive
    role (``_read_lock``) moves between the requesters, see :meth:`request`.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # A blocking socket, bounded in the kernel in both directions: a
        # server that stops reading makes sendmsg fail after ~timeout
        # rather than blocking the sender (and _send_lock) forever, and a
        # recv that saw no byte for ~timeout returns EAGAIN so the thread
        # receiving can apply the inactivity bound (see request()).
        self.sock.settimeout(None)
        bound = struct.pack('ll', int(timeout), int((timeout % 1.0) * 1e6))
        for option in (socket.SO_SNDTIMEO, socket.SO_RCVTIMEO):
            try:
                self.sock.setsockopt(socket.SOL_SOCKET, option, bound)
            except (OSError, ValueError):  # pragma: no cover - niche platforms
                pass
        self._send_lock = threading.Lock()
        #: The receive role: held by the requester that is reading the
        #: socket.  Taken before ``_state_lock`` and ``_send_lock``, never
        #: the other way.
        self._read_lock = threading.Lock()
        self._decoder = StreamDecoder()
        self._state_lock = threading.Lock()
        #: Waiters of the requests sent while another thread held the
        #: receive role, by request id.
        self._pending: dict[int, _Pending] = {}
        # next() on a count is atomic under the GIL: no lock for an id.
        self._ids = itertools.count()
        self.dead = False
        self.dead_error: Exception | None = None
        #: Monotonic timestamp of the last bytes received — a large response
        #: that is still streaming keeps refreshing this, so waiters do not
        #: time out on transfers that are making progress.
        self.last_activity = time.monotonic()

    # -- receive side ------------------------------------------------------ #
    def _touch(self, _nbytes: int) -> None:
        self.last_activity = time.monotonic()

    def _receive_until(self, request_id: int) -> 'tuple[Any, Any] | None':
        """Dispatch incoming frames until the reply to ``request_id``; return it.

        Run by whoever holds the receive role (the leader).  Returns
        ``None`` when a receive saw no byte for a whole timeout, for
        :meth:`request` to judge, or when the connection failed
        (:meth:`_fail` has run).  ``last_activity`` moves once per frame,
        and on every receive of a frame that needs several.
        """
        while True:
            try:
                message = self._decoder.read_message(self.sock, self._touch)
            except BlockingIOError:
                return None  # SO_RCVTIMEO: no byte for a whole timeout
            # repro: ignore[RP004] - not swallowed: _fail() delivers the
            # error to every waiter and poisons the connection
            except Exception as e:  # noqa: BLE001 - any failure kills the conn
                self._fail(e)
                return None
            if message is None:
                self._fail(ConnectionError('SimKV server closed the connection'))
                return None
            self.last_activity = time.monotonic()
            try:
                replied_to, status, payload = message
            except (TypeError, ValueError):
                self._fail(ConnectorError(f'malformed SimKV response: {message!r}'))
                return None
            if replied_to == request_id:
                return status, payload
            with self._state_lock:
                pending = self._pending.pop(replied_to, None)
            if pending is not None:
                pending.result = (status, payload)
                pending.wake()

    def _hand_on(self, leaving: '_Pending | None' = None) -> None:
        """Wake one waiter (not ``leaving``) to try for the receive role.

        Called after the role is released, whenever ``_pending`` is not
        empty.  That unlocked peek cannot miss anyone: a waiter registers
        before it sends, hence before it tries ``_read_lock`` after its
        send, so one that registers after the peek finds the role free by
        itself.
        """
        with self._state_lock:
            successor = next(
                (w for w in self._pending.values() if w is not leaving),
                None,
            )
        if successor is not None:
            successor.wake()

    def _fail(self, error: Exception) -> None:
        """Mark the connection dead and wake every in-flight waiter."""
        # Strip the traceback before storing: a kept traceback pins the
        # failing frame — including wire segments whose memoryviews still
        # hold pickle buffer exports.  A reference cycle through such a
        # view makes the GC's tp_clear raise BufferError and can abort
        # the whole process.
        error = error.with_traceback(None)
        with self._state_lock:
            if self.dead:
                return
            self.dead = True
            self.dead_error = error
            pending, self._pending = self._pending, {}
        for waiter in pending.values():
            waiter.error = error
            waiter.wake()
        # shutdown() (unlike a bare close()) reliably wakes a thread
        # blocked in recv: a leader returns to its caller.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - platform dependent
            pass

    # -- send side --------------------------------------------------------- #
    def request(self, message_tail: tuple, timeout: float | None) -> tuple[Any, Any]:
        """Issue one request and wait for its response.

        A thread that finds the receive role free takes it *before* its
        send: it reads its own reply, so it needs no waiter, and pays one
        more lock (``_send_lock``) than the bare syscalls; any other reply
        it reads goes to that request's waiter.  A thread that finds the
        role taken registers a waiter, sends, and follows
        (:meth:`_follow`).

        ``timeout`` bounds *inactivity*, not total duration: as long as the
        connection keeps receiving bytes (a large response streaming in, or
        other pipelined responses), the wait continues — matching the
        per-``recv`` socket timeout of the pre-pipelining client.

        Raises ``_StaleConnectionError`` when the connection died (before,
        during, or after the send) — the caller may retry on a fresh one.
        """
        request_id = next(self._ids)
        # Pickle outside the send lock so concurrent senders only serialize
        # on the actual socket write.
        segments, size = _encode_frame((request_id, *message_tail))
        leading = self._read_lock.acquire(False)
        if not leading:
            waiter = _Pending()
            with self._state_lock:
                if self.dead:
                    raise _StaleConnectionError(self.dead_error)
                self._pending[request_id] = waiter
        try:
            with self._send_lock:
                # One sendmsg for the whole frame; only after a partial
                # send (or past IOV_MAX segments) does the rest go through
                # the loop — still the caller's memory, never joined.
                sent = self.sock.sendmsg(segments) if len(segments) <= IOV_MAX else 0
                if sent != size:
                    vectored_write(self.sock.sendmsg, unsent(segments, sent))
        except OSError as e:
            # Drop the frame's reference to the wire segments before the
            # exception (whose traceback pins this frame) escapes: their
            # memoryviews hold pickle buffer exports, and an exported view
            # caught in a GC cycle crashes the collector's tp_clear.
            del segments
            if leading:
                self._read_lock.release()
            self._fail(e)  # wakes every waiter, this one's included
            raise _StaleConnectionError(e) from e
        if not leading:
            return self._follow(request_id, waiter, timeout)
        try:
            reply = self._receive_until(request_id)
        finally:
            self._read_lock.release()
            if self._pending:
                self._hand_on()
        if reply is None:
            if self.dead:
                raise _StaleConnectionError(self.dead_error)
            # Only this thread read the socket since the send, and its
            # receive saw no byte for a whole timeout: idle that long.
            raise self._timed_out(timeout)
        return reply

    def _follow(
        self, request_id: int, waiter: _Pending, timeout: float | None,
    ) -> tuple[Any, Any]:
        """Wait for the reply to a request sent while another thread led.

        Whoever holds the receive role hands the reply to ``waiter``.
        Woken without one (the leader left), the thread takes the role
        itself if it is free.
        """
        sent_at = time.monotonic()
        remaining = timeout  # the first pass: nothing has been idle yet
        while True:
            if self._read_lock.acquire(blocking=False):
                try:
                    if waiter.result is None and waiter.error is None:
                        reply = self._receive_until(request_id)
                        if reply is not None:
                            waiter.result = reply
                            with self._state_lock:
                                self._pending.pop(request_id, None)
                finally:
                    self._read_lock.release()
                    if self._pending:
                        self._hand_on(waiter)
            else:
                waiter.wait(remaining)
            if waiter.result is not None or waiter.error is not None:
                break
            if timeout is not None:
                idle_for = time.monotonic() - max(self.last_activity, sent_at)
                remaining = timeout - idle_for
                if remaining <= 0:
                    with self._state_lock:
                        self._pending.pop(request_id, None)
                    if self._pending:
                        self._hand_on()  # this thread may be the one woken to lead
                    raise self._timed_out(timeout)
        if waiter.error is not None:
            raise _StaleConnectionError(waiter.error)
        assert waiter.result is not None
        return waiter.result

    @staticmethod
    def _timed_out(timeout: float | None) -> ConnectorError:
        return ConnectorError(
            f'SimKV request timed out after {timeout}s of connection inactivity',
        )

    def close(self) -> None:
        """Fail the connection, waking every waiter (idempotent)."""
        self._fail(ConnectionError('client closed the connection'))


def open_connection(host: str, port: int, timeout: float) -> _Connection:
    """Connect to a SimKV server; the one place a client socket is made.

    A refused or timed-out connect is typed
    :class:`~repro.exceptions.NodeUnavailableError`, so replicated callers
    know the node is down (retry elsewhere) rather than the request bad.
    """
    try:
        return _Connection(host, port, timeout)
    except OSError as e:
        raise NodeUnavailableError(
            f'cannot connect to SimKV server at {host}:{port}: {e}',
        ) from e


class KVClient:
    """Pipelined client for a :class:`~repro.kvserver.server.KVServer`.

    The consumer-group commands travel through :meth:`group_command`, with
    the option dicts :class:`~repro.stream.groups.GroupCoordinator` builds.

    Args:
        host: server host name.
        port: server port.
        timeout: seconds to wait for a connect, and the per-request
            *inactivity* bound — a request only times out once its
            connection has received no bytes for this long, so large
            transfers that are still streaming never trip it.
        pool_size: number of pooled connections requests round-robin over.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        pool_size: int = DEFAULT_POOL_SIZE,
    ) -> None:
        if pool_size < 1:
            raise ValueError('pool_size must be at least 1')
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool_size = pool_size
        self._pool: list[_Connection | None] = [None] * pool_size
        self._pool_lock = threading.Lock()
        # Per-slot locks, taken only to (re)connect, so a blocking connect
        # of one slot never stalls requests using the other, healthy
        # pooled connections.
        self._slot_locks = [threading.Lock() for _ in range(pool_size)]
        # next() on a count is atomic under the GIL: no lock to pick a slot.
        self._round_robin = itertools.count()

    # -- connection management -------------------------------------------- #
    def _connection(self) -> _Connection:
        """Return the next pooled connection, (re)connecting a dead slot."""
        index = next(self._round_robin) % self.pool_size
        connection = self._pool[index]
        if connection is None or connection.dead:
            with self._slot_locks[index]:
                connection = self._pool[index]
                if connection is None or connection.dead:
                    connection = open_connection(self.host, self.port, self.timeout)
                    self._pool[index] = connection
        return connection

    def _request(self, command: str, key: str | None = None, value: Any = None) -> Any:
        """Issue ``command`` and return its payload.

        A request that fails because its pooled connection went stale is
        retried on a fresh connection (every SimKV command is idempotent).
        Up to ``pool_size`` stale connections may be encountered before a
        fresh one (e.g. after a server restart every pooled socket is
        dead), so stale failures do not consume the retry — the request
        only fails after ``pool_size + 1`` immediate attempts: cycling to a
        fresh pooled socket costs nothing, and riding out a restart is the
        owner walk's job (``PartitionRouter.first_live``), not this
        client's.
        """
        last_error: Exception | None = None
        for _attempt in range(self.pool_size + 1):
            connection = self._connection()
            try:
                status, payload = connection.request((command, key, value), self.timeout)
            except _StaleConnectionError as e:
                last_error = e.__cause__ or (e.args[0] if e.args else e)
                continue
            if status != 'ok':
                # The one typed error reply: an expired group member must
                # rejoin, which callers tell apart from a failed request.
                error = (
                    GroupMembershipError
                    if str(payload).startswith(UNKNOWN_MEMBER)
                    else ConnectorError
                )
                raise error(f'SimKV error: {payload}')
            return payload
        # Every attempt died at the connection level: the node itself is
        # unreachable (crashed or restarting), not the request malformed.
        raise NodeUnavailableError(
            f'SimKV server at {self.host}:{self.port} is unavailable: '
            f'{last_error}',
        )

    def close(self) -> None:
        """Close every pooled connection (a later request reconnects).

        Idempotent and safe from ``__del__``: a second close sees an empty
        pool and does nothing.
        """
        with self._pool_lock:
            connections = [c for c in self._pool if c is not None]
            self._pool = [None] * self.pool_size
        for connection in connections:
            connection.close()

    def __del__(self) -> None:
        """Best-effort close so dropped clients never leak sockets."""
        try:
            self.close()
        # repro: ignore[RP004] - __del__ during interpreter teardown;
        # nothing is left to report to
        except Exception:  # noqa: BLE001 - interpreter teardown
            pass

    def __enter__(self) -> 'KVClient':
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- commands ----------------------------------------------------------- #
    def ping(self) -> bool:
        """Return True if the server responds to a PING."""
        return self._request('PING') == 'PONG'

    def set(self, key: str, value: 'bytes | bytearray | memoryview | SerializedObject') -> None:
        """Store ``value`` under ``key``, replacing any previous value."""
        self._request('SET', key, _wrap_value(value))

    def get(self, key: str) -> 'bytes | bytearray | memoryview | SerializedObject | None':
        """Return the stored value as received, without a copy.

        A bytes-like view of the received data, or a
        :class:`~repro.serialize.buffers.SerializedObject` over the
        received segments when the value was stored in several (a payload
        of at least ``READ_AHEAD_BYTES`` sent in segments).
        """
        return _received(self._request('GET', key))

    def mset(
        self,
        items: Sequence[tuple[str, 'bytes | bytearray | memoryview | SerializedObject']],
    ) -> None:
        """Store several key/value pairs in one round trip."""
        self._request('MSET', None, [(k, _wrap_value(v)) for k, v in items])

    def mget(
        self, keys: Iterable[str],
    ) -> 'list[bytes | bytearray | memoryview | SerializedObject | None]':
        """Fetch several keys in one round trip (``None`` for missing keys).

        Each value comes back as :meth:`get` returns it: a bytes-like view
        or a :class:`~repro.serialize.buffers.SerializedObject`.
        """
        return [_received(value) for value in self._request('MGET', None, list(keys))]

    def mdel(self, keys: Iterable[str]) -> int:
        """Delete several keys in one round trip; returns how many existed."""
        return int(self._request('MDEL', None, list(keys)))

    def exists(self, key: str) -> bool:
        """Return whether ``key`` currently exists on the server."""
        return bool(self._request('EXISTS', key))

    def keys(self) -> list[str]:
        """Return every key currently stored on the server.

        Used by the cluster rebalancer to enumerate a node's holdings when
        computing the ring-delta migration set.
        """
        return list(self._request('KEYS'))

    # -- pub/sub commands (stream event transport) -------------------------- #
    def publish(self, topic: str, payload: 'bytes | bytearray | memoryview | SerializedObject') -> int:
        """Publish one event payload on ``topic``; returns its sequence number.

        The payload's segments travel out-of-band (scatter/gather, no copy);
        the server retains the event in the topic's ring buffer and answers
        the fetches parked there.
        """
        return int(self._request('PUBLISH', topic, _wrap_value(payload)))

    def publish_batch(
        self,
        topic: str,
        payloads: Sequence['bytes | bytearray | memoryview | SerializedObject'],
    ) -> list[int]:
        """Publish several event payloads on ``topic`` in one round trip."""
        return list(
            self._request('MPUBLISH', topic, [_wrap_value(p) for p in payloads]),
        )

    def fetch_events(
        self,
        topic: str,
        since: int,
        max_events: int = 0,
        *,
        wait: float = 0.0,
    ) -> dict[str, Any]:
        """Fetch retained events with ``seq >= since`` from ``topic``'s ring.

        Returns ``{'events': [(seq, payload), ...], 'next_seq': int,
        'lost': int}`` where each payload is as :meth:`get` returns a value
        and ``lost`` counts events that aged out of the ring before
        ``since``.  ``max_events`` bounds the reply (0 =
        everything retained).  With ``wait`` seconds a fetch that finds
        nothing at or past ``since`` waits on the server for the next
        publish, and returns empty if none comes in time; the wait is
        capped at half this client's ``timeout``, so a parked fetch is
        never mistaken for a dead server.
        """
        options = {'since': since, 'max_events': max_events}
        if wait:
            options['wait'] = min(wait, self.timeout / 2)
        reply = self._request('FETCH', topic, options)
        reply['events'] = [(seq, _received(payload)) for seq, payload in reply['events']]
        return reply

    def topic_stats(self, topic: str) -> dict[str, Any] | None:
        """Return broker statistics for ``topic`` (``None`` if it never existed)."""
        return self._request('TSTATS', topic)

    def topic_config(self, topic: str, *, retention: int) -> dict[str, Any]:
        """Set ``topic``'s ring-buffer retention (trimming immediately)."""
        return self._request('TCONFIG', topic, {'retention': retention})

    def group_command(
        self, command: str, group: str, options: dict[str, Any] | None = None,
    ) -> Any:
        """Run one of :data:`~repro.kvserver.broker.GROUP_COMMANDS` on ``group``.

        Raises :class:`~repro.exceptions.GroupMembershipError` when the
        member was expired (it must rejoin before consuming further).
        """
        return self._request(command, group, options)

    # -- replication commands (broker failover) ------------------------------ #
    def repl_publish(
        self,
        topic: str,
        entries: Sequence[tuple[int, 'bytes | bytearray | memoryview | SerializedObject']],
    ) -> dict[str, Any]:
        """Mirror ``(seq, payload)`` events into ``topic``'s ring on a replica.

        Unlike ``publish``, the sequence numbers are *explicit* — they were
        assigned by the primary broker — so the replica's ring ends up with
        identical numbering and a failed-over subscriber resumes from its
        cursor without renumbering.  Idempotent: duplicates and already
        trimmed events are dropped server-side.  Returns ``{'accepted',
        'next_seq'}``.
        """
        return self._request(
            'REPL_PUBLISH', topic,
            [(int(seq), _wrap_value(payload)) for seq, payload in entries],
        )

    def repl_group(self, group: str, state: dict[str, Any]) -> dict[str, Any]:
        """Mirror a mutating group command for ``group`` onto a replica.

        ``state`` is the command's options plus ``op`` (its operation:
        'join'/'heartbeat'/'commit'/'leave') and the primary's post-op
        ``generation``.  Applied leniently and monotonically server-side,
        so mirrored commands may arrive late, duplicated, or out of order.
        Returns the replica's ``{'generation', 'members'}`` view.
        """
        return self._request('REPL_GROUP', group, dict(state))

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed."""
        return bool(self._request('DEL', key))

    def flush(self) -> int:
        """Remove every key on the server; returns how many were removed."""
        return int(self._request('FLUSH'))

    def size(self) -> int:
        """Return the number of keys the server holds."""
        return int(self._request('SIZE'))
