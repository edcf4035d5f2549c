"""Event bus brokered by the SimKV event-loop server.

The SimKV server (:mod:`repro.kvserver`) doubles as the pub/sub broker for
multi-process streams: ``PUBLISH`` appends an event payload to a per-topic
ring buffer and fans it out to subscribed connections as unsolicited
``EVENT`` frames.  :class:`KVEventBus` is the client side:

* Publishing and catch-up fetches reuse the **pipelined** :class:`KVClient`
  (batched ``MPUBLISH`` frames, many publishes in flight on one socket).
* Each subscription holds a **dedicated connection** of the same class the
  pipelined client pools (:func:`~repro.kvserver.client.open_connection`):
  the server pushes event batches to it, the connection's reader thread
  hands them to the subscription's sink, which queues them, and the
  consumer drains the queue.  The queue is bounded — a consumer that
  stops draining stalls its own TCP receive window, the server's outgoing
  queue for that connection hits the ``push_highwater`` mark and pushes
  stop, and the topic's ring retention bounds what the server keeps.
  When the consumer resumes, the sequence gap is detected and a ``FETCH``
  replays whatever the ring still holds (the rest is counted as *lost*,
  never silently skipped).

The bus registers under the ``kv`` and ``redis`` URL schemes, so
``event_bus_from_url('kv://127.0.0.1:7777?launch=1')`` selects it through
the same scheme-registry pattern stores use.
"""
from __future__ import annotations

import queue
import threading
import time
from typing import Any
from typing import Sequence

from repro.connectors.registry import StoreURL
from repro.exceptions import ConnectorError
from repro.exceptions import NodeUnavailableError
from repro.kvserver.client import DEFAULT_POOL_SIZE
from repro.kvserver.client import DEFAULT_TIMEOUT
from repro.kvserver.client import KVClient
from repro.kvserver.client import open_connection
from repro.kvserver.server import launch_server
from repro.stream.bus import register_event_bus

__all__ = ['KVEventBus', 'KVSubscription']

#: Bound on the push-batch queue of one subscription.  A full queue blocks
#: the reader thread, which stalls the TCP stream and engages the server's
#: highwater backpressure — bounded memory at every hop.
DEFAULT_MAX_QUEUED_BATCHES = 64


class KVSubscription:
    """One consumer's subscription to a topic on a SimKV broker.

    The subscription is a dedicated client connection (server pushes are
    per-connection) whose event sink feeds a bounded queue, plus the
    ``SUBSCRIBE`` request issued over it.  :meth:`next_batch` reconciles
    pushed batches with the expected sequence number: gaps (pushes dropped
    while this consumer lagged) are backfilled from the topic ring via the
    bus's pipelined client, and events that aged out of retention are
    counted in :attr:`lost`.

    The subscription does not reconnect: once its connection dies and the
    queued batches are drained, :meth:`next_batch` raises
    :class:`~repro.exceptions.NodeUnavailableError`.  Resuming from the
    cursor — on the same broker after a restart, or on a replica — is the
    owner walk's job (:meth:`~repro.stream.groups.PartitionRouter.subscribe`).
    """

    def __init__(
        self,
        bus: 'KVEventBus',
        topic: str,
        from_seq: int | None,
        *,
        max_queued_batches: int = DEFAULT_MAX_QUEUED_BATCHES,
        poll_interval: float = 0.5,
    ) -> None:
        self._bus = bus
        self.topic = topic
        self._poll_interval = poll_interval
        self._queue: queue.Queue[list[tuple[int, Any]]] = queue.Queue(
            maxsize=max_queued_batches,
        )
        self._lost = 0
        self._closed = False
        # The server sends a from_seq backlog *ahead of* the SUBSCRIBE reply
        # and the sink runs on the thread that dispatches that reply, so
        # until the reply is in, pushes are held here instead of blocking
        # on the bounded queue.  next_batch() delivers them first.
        self._held: list[tuple[int, Any]] | None = []
        self._held_lock = threading.Lock()
        self._connection = open_connection(
            bus.host, bus.port, bus.timeout, self._on_event,
        )
        try:
            status, reply = self._connection.request(
                ('SUBSCRIBE', topic, {'from_seq': from_seq}), bus.timeout,
            )
            if status != 'ok':
                raise ConnectorError(f'SUBSCRIBE failed: {reply}')
        except ConnectorError:
            self.close()
            raise
        with self._held_lock:
            self._replay, self._held = self._held, None
        reply_lost = int(reply.get('lost', 0))
        self._lost += reply_lost
        # Replay starts at the oldest retained event past from_seq; with no
        # from_seq the cursor starts at the broker's current head.
        self._expected = (
            int(from_seq) + reply_lost
            if from_seq is not None
            else int(reply['next_seq'])
        )

    def _on_event(self, payload: Any) -> None:
        """The connection's sink: queue one pushed batch (reader thread)."""
        if payload is None:
            # The connection died: wake a blocked next_batch to notice.
            try:
                self._queue.put_nowait([])
            except queue.Full:
                pass
            return
        _topic, events = payload
        batch = [(int(seq), data) for seq, data in events]
        with self._held_lock:
            if self._held is not None:
                self._held.extend(batch)
                return
        # Blocks while the consumer lags (that is the backpressure), but
        # in slices: close() must be able to get this thread out and joined.
        while not self._closed:
            try:
                self._queue.put(batch, timeout=0.1)
                return
            except queue.Full:
                continue

    # -- consumption ------------------------------------------------------- #
    @property
    def lost(self) -> int:
        """Events that aged out of retention before this subscriber saw them."""
        return self._lost

    @property
    def position(self) -> int:
        """Sequence number of the next event this subscriber will deliver."""
        return self._expected

    def _fetch(self, up_to: int | None = None) -> list[tuple[int, Any]]:
        """Fetch events past the cursor straight from the topic ring.

        With ``up_to`` this backfills a push gap ``[expected, up_to)``:
        events from ``up_to`` on may still be in flight as pushes, so only
        the gap is accounted, and whatever the ring no longer holds below
        ``up_to`` is lost for good.  Without it, it is the liveness net
        under server-side push dropping: when this consumer lagged past
        the highwater mark, the events it missed sit in the ring but no
        push will ever re-announce them unless someone publishes again —
        so an idle wait periodically asks the ring directly.

        Lost events are counted once and the cursor moves past them:
        leaving it inside the lost region would re-count the same loss on
        the next fetch.
        """
        gap = None if up_to is None else up_to - self._expected
        fetched = self._bus.client.fetch_events(
            self.topic, since=self._expected, max_events=gap or 0,
        )
        lost = int(fetched.get('lost', 0))
        lost = lost if gap is None else min(lost, gap)
        self._lost += lost
        self._expected += lost
        out: list[tuple[int, Any]] = []
        for seq, data in fetched.get('events', []):
            seq = int(seq)
            if self._expected <= seq and (up_to is None or seq < up_to):
                out.append((seq, data))
                self._expected = seq + 1
        if up_to is not None and self._expected < up_to:
            self._lost += up_to - self._expected
            self._expected = up_to
        return out

    def next_batch(self, timeout: float | None = None) -> list[tuple[int, Any]]:
        """Return the next in-order events (empty list on timeout).

        Pushed batches are reconciled against the expected sequence number:
        duplicates (push/fetch overlap) are dropped, and gaps are
        backfilled from the server's ring buffer — the caller sees each
        surviving event exactly once, in order.  When pushes go quiet for
        ``poll_interval`` the ring is polled directly, so events whose
        pushes were dropped under backpressure are still delivered.

        Raises:
            NodeUnavailableError: the push connection died and everything
                it had queued has been delivered.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while not self._closed:
            # Read before the get: a dying connection sets this, then
            # queues the empty wake-up batch.
            dead = self._connection.dead
            raw = self._replay
            if raw:
                self._replay = []
            else:
                wait = 0.0 if dead else self._poll_interval
                if deadline is not None:
                    wait = min(wait, max(0.0, deadline - time.monotonic()))
                try:
                    raw = self._queue.get(timeout=wait)
                except queue.Empty:
                    if dead:
                        break
                    polled = self._fetch()
                    if polled:
                        return polled
                    if deadline is not None and time.monotonic() >= deadline:
                        return []
                    continue
            # Drain whatever else is already queued — batching is free here.
            while True:
                try:
                    raw.extend(self._queue.get_nowait())
                except queue.Empty:
                    break
            out: list[tuple[int, Any]] = []
            for seq, data in raw:
                if seq < self._expected:
                    continue
                if seq > self._expected:
                    out.extend(self._fetch(up_to=seq))
                out.append((seq, data))
                self._expected = seq + 1
            if out:
                return out
            if deadline is not None and time.monotonic() >= deadline:
                return []
        if self._closed:
            return []
        raise NodeUnavailableError(
            f'push connection to SimKV broker at {self._bus.host}:'
            f'{self._bus.port} died: {self._connection.dead_error}',
        )

    # -- lifecycle --------------------------------------------------------- #
    def close(self) -> None:
        """Close the push connection (the server drops the subscription)."""
        self._closed = True
        self._connection.close()

    def __enter__(self) -> 'KVSubscription':
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()


class KVEventBus:
    """Event bus whose topics live on a SimKV event-loop server.

    Args:
        host: broker host name.
        port: broker port.  With ``launch=True`` and ``port=0`` a fresh
            in-process server is started (ephemeral port recorded so
            ``config()`` round-trips point at the same broker).
        launch: start an in-process server if one is not already running.
        retention: per-topic ring-buffer bound applied (via ``TCONFIG``)
            to topics first touched through this handle; ``None`` keeps
            the server default.
        timeout: per-request inactivity bound, as for :class:`KVClient`.
        pool_size: pooled connections of the publish/fetch client.
        max_queued_batches: bound on each subscription's local push queue.
        poll_interval: seconds an idle subscription waits between direct
            ring polls (the liveness net when its pushes were dropped
            under backpressure); lower it for latency-sensitive consumers.
    """

    scheme = 'kv'

    def __init__(
        self,
        host: str = '127.0.0.1',
        port: int = 0,
        *,
        launch: bool = False,
        retention: int | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        pool_size: int = DEFAULT_POOL_SIZE,
        max_queued_batches: int = DEFAULT_MAX_QUEUED_BATCHES,
        poll_interval: float = 0.5,
    ) -> None:
        if launch:
            server = launch_server(host, port)
            assert server.port is not None
            host, port = server.host, server.port
        self.host = host
        self.port = port
        self.retention = retention
        self.timeout = timeout
        self.pool_size = pool_size
        self.max_queued_batches = max_queued_batches
        self.poll_interval = poll_interval
        self.client = KVClient(host, port, timeout=timeout, pool_size=pool_size)
        self._configured: set[str] = set()
        self._configure_lock = threading.Lock()

    def __repr__(self) -> str:
        return f'KVEventBus(host={self.host!r}, port={self.port})'

    def _ensure_topic(self, topic: str) -> None:
        """Apply this handle's retention to ``topic`` exactly once."""
        if self.retention is None or topic in self._configured:
            return
        with self._configure_lock:
            if topic in self._configured:
                return
            self.client.topic_config(topic, retention=self.retention)
            self._configured.add(topic)

    # -- EventBus protocol ------------------------------------------------- #
    def publish(self, topic: str, payload: Any) -> int:
        """Publish one payload on ``topic``; returns its sequence number."""
        self._ensure_topic(topic)
        return self.client.publish(topic, payload)

    def publish_batch(self, topic: str, payloads: Sequence[Any]) -> list[int]:
        """Publish several payloads on ``topic`` in one wire round trip."""
        self._ensure_topic(topic)
        return self.client.publish_batch(topic, payloads)

    def subscribe(self, topic: str, *, from_seq: int | None = None) -> KVSubscription:
        """Open a dedicated push subscription to ``topic``.

        ``from_seq`` replays the retained backlog from that sequence
        number; events older than the ring are counted on the
        subscription's ``lost``.  The subscription reports the death of
        its connection as ``NodeUnavailableError``; subscribe through a
        :class:`~repro.stream.groups.PartitionRouter` (as the stream
        consumers do) to resume from the cursor instead.
        """
        self._ensure_topic(topic)
        return KVSubscription(
            self,
            topic,
            from_seq,
            max_queued_batches=self.max_queued_batches,
            poll_interval=self.poll_interval,
        )

    def topic_stats(self, topic: str) -> dict[str, Any] | None:
        """Return broker-side statistics for ``topic``."""
        return self.client.topic_stats(topic)

    def configure_topic(self, topic: str, *, retention: int) -> None:
        """Set ``topic``'s ring retention on the broker."""
        self.client.topic_config(topic, retention=retention)
        self._configured.add(topic)

    def config(self) -> dict[str, Any]:
        """Return a picklable dict re-creating a handle to the same broker."""
        return {
            'scheme': self.scheme,
            'host': self.host,
            'port': self.port,
            'retention': self.retention,
            'timeout': self.timeout,
            'pool_size': self.pool_size,
            'max_queued_batches': self.max_queued_batches,
            'poll_interval': self.poll_interval,
        }

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> 'KVEventBus':
        """Rebuild a bus handle from a :meth:`config` dictionary."""
        return cls(**config)

    @classmethod
    def from_url(cls, url: 'StoreURL | str') -> 'KVEventBus':
        """Build from ``kv://host:port[?launch=1&retention=N&timeout=S]``."""
        url = StoreURL.parse(url)
        timeout = url.pop_float('timeout', DEFAULT_TIMEOUT)
        pool_size = url.pop_int('pool_size', DEFAULT_POOL_SIZE)
        poll_interval = url.pop_float('poll_interval', 0.5)
        assert timeout is not None and pool_size is not None
        assert poll_interval is not None
        return cls(
            host=url.host or '127.0.0.1',
            port=url.port or 0,
            launch=url.pop_bool('launch', False),
            retention=url.pop_int('retention'),
            timeout=timeout,
            pool_size=pool_size,
            poll_interval=poll_interval,
        )

    def close(self) -> None:
        """Close the publish/fetch client (subscriptions close themselves)."""
        self.client.close()

    def __enter__(self) -> 'KVEventBus':
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()


register_event_bus('kv', KVEventBus)
register_event_bus('redis', KVEventBus)
