"""Event bus brokered by the SimKV event-loop server.

The SimKV server (:mod:`repro.kvserver`) doubles as the pub/sub broker for
multi-process streams: ``PUBLISH`` appends an event payload to a per-topic
ring buffer and ``FETCH`` reads the ring from a sequence number.
:class:`KVEventBus` is the client side, and every request — batched
``MPUBLISH`` frames, fetches, group commands — goes through one pipelined
:class:`~repro.kvserver.client.KVClient`.

A subscription is the same :class:`~repro.stream.bus.Subscription` cursor
the in-process bus hands out: its ``next_batch`` long-polls ``FETCH``
with a ``wait``, which parks on the server until the next publish to the
topic (or the wait runs out).  No socket or thread per subscription, and
nothing queued anywhere but the topic's ring: a consumer that stops
reading costs the broker nothing, and one that falls behind the ring's
retention learns how many events it lost on its next fetch.

The bus registers under the ``kv`` and ``redis`` URL schemes, so
``event_bus_from_url('kv://127.0.0.1:7777?launch=1')`` selects it through
the same scheme-registry pattern stores use.
"""
from __future__ import annotations

import threading
from typing import Any
from typing import Sequence

from repro.connectors.registry import StoreURL
from repro.kvserver.client import DEFAULT_POOL_SIZE
from repro.kvserver.client import DEFAULT_TIMEOUT
from repro.kvserver.client import KVClient
from repro.kvserver.server import launch_server
from repro.stream.bus import Subscription
from repro.stream.bus import register_event_bus

__all__ = ['KVEventBus']


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
        pool_size: pooled connections of the client every request uses.
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

    def fetch(self, topic: str, since: int, wait: float = 0.0) -> tuple[list, int]:
        """One ``FETCH`` of ``topic`` from ``since``, parked on the broker
        for up to ``wait`` seconds (capped below the request timeout)."""
        reply = self.client.fetch_events(topic, since, wait=wait)
        return reply['events'], reply['lost']

    def subscribe(self, topic: str, *, from_seq: int | None = None) -> Subscription:
        """Return a cursor on ``topic`` that long-polls ``FETCH``.

        ``from_seq`` replays the retained backlog from that sequence
        number; events older than the ring are counted on the
        subscription's ``lost``.  A broker that cannot be reached raises
        ``NodeUnavailableError`` from ``next_batch``; subscribe through a
        :class:`~repro.stream.groups.PartitionRouter` (as the stream
        consumers do) to resume from the cursor instead.
        """
        self._ensure_topic(topic)
        return Subscription(self, topic, from_seq)

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
        assert timeout is not None and pool_size is not None
        return cls(
            host=url.host or '127.0.0.1',
            port=url.port or 0,
            launch=url.pop_bool('launch', False),
            retention=url.pop_int('retention'),
            timeout=timeout,
            pool_size=pool_size,
        )

    def close(self) -> None:
        """Close the client (a later request reconnects)."""
        self.client.close()

    def __enter__(self) -> 'KVEventBus':
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()


register_event_bus('kv', KVEventBus)
register_event_bus('redis', KVEventBus)
