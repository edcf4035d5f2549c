"""Event buses: the pub/sub transport under streaming proxy channels.

An :class:`EventBus` moves small opaque payloads (encoded
:class:`~repro.stream.StreamEvent` records) between producers and
consumers:

* ``publish(topic, payload)`` appends the payload to the topic's bounded
  *ring buffer* and returns its monotonically increasing sequence number.
* ``fetch(topic, since, wait)`` reads the ring from ``since``, waiting up
  to ``wait`` seconds for a publish when nothing is there yet.
* ``subscribe(topic)`` returns a :class:`Subscription`: a cursor that
  long-polls ``fetch`` and yields ``(seq, payload)`` pairs in publication
  order.  Subscribing with ``from_seq`` replays retained history
  (catch-up); events that aged out of the ring before the subscriber
  observed them are counted in :attr:`Subscription.lost` instead of
  blocking the producer — retention is the explicit, bounded trade-off
  that keeps a slow consumer from growing broker memory without bound.

Two implementations ship with the library and more can be registered:

* :class:`LocalEventBus` — an in-process broker for single-node pipelines
  (``local://bus-id``); a fetch reads straight from the shared ring.
  It keeps the same :mod:`repro.kvserver.broker` topic and group state
  the SimKV server keeps, so both transports share one set of semantics.
* :class:`~repro.stream.kv.KVEventBus` — topics brokered by the SimKV
  event-loop server (``kv://host:port``); a fetch is one ``FETCH``
  request, parked on the server until an event arrives.

:func:`event_bus_from_url` selects the implementation by URL scheme
through a registry mirroring the connector registry, so streaming code is
transport-agnostic the same way stores are.
"""
from __future__ import annotations

import threading
import time
from typing import Any
from typing import Iterator
from typing import Protocol
from typing import Sequence
from typing import runtime_checkable

from repro.connectors.registry import StoreURL
from repro.exceptions import UnknownConnectorSchemeError
from repro.kvserver.broker import GroupCommands
from repro.kvserver.broker import GroupState
from repro.kvserver.broker import TopicRing

__all__ = [
    'DEFAULT_LOCAL_RETENTION',
    'EventBus',
    'FETCH_SLICE',
    'LocalEventBus',
    'Subscription',
    'broker_id',
    'event_bus_from_url',
    'list_event_buses',
    'register_event_bus',
]

#: Default per-topic ring retention of the in-process bus.
DEFAULT_LOCAL_RETENTION = 256

#: Longest wait (seconds) of one fetch in :meth:`Subscription.next_batch`:
#: how soon ``close()`` from another thread takes effect, and how often an
#: idle subscription asks its broker again.
FETCH_SLICE = 0.5


class Subscription:
    """A consumer's cursor on one topic, as every bus hands it out.

    :meth:`next_batch` long-polls the bus's ``fetch`` from ``position`` in
    waits of at most :data:`FETCH_SLICE`.  Events the ring dropped before
    the cursor reached them — aged out of retention, or a hole in a
    replica's ring — are counted in ``lost`` and stepped over.  The cursor
    does not reconnect: a transport failure propagates from
    :meth:`next_batch`, and resuming from ``position`` (on the same broker
    after a restart, or on a replica) is
    :class:`~repro.stream.failover.FailoverSubscription`'s job.
    """

    def __init__(self, bus: 'EventBus', topic: str, from_seq: int | None = None) -> None:
        if from_seq is not None and from_seq < 0:
            raise ValueError(f'from_seq must be >= 0, not {from_seq}')
        # One round trip at creation, whatever ``from_seq``: a broker that
        # cannot be reached fails the subscribe, where an owner walk backs
        # off, not each later fetch.
        stats = bus.topic_stats(topic)
        if from_seq is None:  # start at the head: only events published from now
            from_seq = stats['next_seq'] if stats else 0
        self.bus = bus
        self.topic = topic
        #: Sequence number of the next event this cursor will deliver.
        self.position = from_seq
        #: Events that aged out of retention before this cursor saw them.
        self.lost = 0
        self.closed = False

    def next_batch(self, timeout: float | None = None) -> list[tuple[int, Any]]:
        """Return the next events in order (empty on timeout or once closed)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.closed:
            wait = FETCH_SLICE
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            events, lost = self.bus.fetch(self.topic, self.position, wait)
            if events:  # counts holes below the last event as well
                lost = events[-1][0] + 1 - self.position - len(events)
            self.lost += lost
            self.position += lost + len(events)
            if events or (deadline is not None and time.monotonic() >= deadline):
                return events
        return []

    def close(self) -> None:
        """Stop reading: a ``next_batch`` in another thread returns within
        one :data:`FETCH_SLICE`."""
        self.closed = True


@runtime_checkable
class EventBus(Protocol):
    """Protocol every event-bus implementation satisfies."""

    def publish(self, topic: str, payload: 'bytes | bytearray | memoryview') -> int:
        """Publish one payload on ``topic``; returns its sequence number."""
        ...

    def publish_batch(self, topic: str, payloads: Sequence[Any]) -> list[int]:
        """Publish several payloads on ``topic`` (one round trip where possible)."""
        ...

    def fetch(self, topic: str, since: int, wait: float = 0.0) -> tuple[list, int]:
        """Return ``(events, lost)``: the retained ``(seq, payload)`` pairs
        with ``seq >= since``, and how many before them aged out.

        With nothing at or past ``since``, waits up to ``wait`` seconds
        for a publish (an empty list when none comes).
        """
        ...

    def subscribe(self, topic: str, *, from_seq: int | None = None) -> Subscription:
        """Return a :class:`Subscription` cursor on ``topic``.

        ``from_seq`` replays retained history from that sequence number;
        ``None`` delivers only events published after the subscription.
        """
        ...

    def topic_stats(self, topic: str) -> dict[str, Any] | None:
        """Return broker statistics for ``topic`` (``None`` if unknown)."""
        ...

    def configure_topic(self, topic: str, *, retention: int) -> None:
        """Bound ``topic``'s ring buffer to ``retention`` events."""
        ...

    def config(self) -> dict[str, Any]:
        """Return a picklable dict from which an equivalent bus can be built."""
        ...

    def close(self) -> None:
        """Release transport resources held by this bus handle."""
        ...


def broker_id(bus: EventBus) -> str:
    """Stable, process-independent identity of the broker behind ``bus``.

    Partitioned topics place each partition on a broker through a
    consistent-hash ring over these ids (see :mod:`repro.stream.groups`),
    so two processes handed the same broker URLs must derive the *same*
    id per broker: the id is built from the bus config's addressing
    fields (scheme plus host:port or bus id), never from handle identity.
    """
    config = bus.config()
    scheme = config.get('scheme', bus.__class__.__name__)
    if 'host' in config and 'port' in config:
        return f'{scheme}://{config["host"]}:{config["port"]}'
    if 'bus_id' in config:
        return f'{scheme}://{config["bus_id"]}'
    # Fallback for third-party buses: every non-callable config field.
    detail = ','.join(
        f'{k}={v}' for k, v in sorted(config.items()) if k != 'scheme'
    )
    return f'{scheme}://{detail}'


# --------------------------------------------------------------------------- #
# Scheme registry (mirrors repro.connectors.registry)
# --------------------------------------------------------------------------- #
_BUS_SCHEMES: dict[str, type] = {}
_REGISTRY_LOCK = threading.Lock()


def register_event_bus(scheme: str, cls: type, *, replace: bool = False) -> None:
    """Register ``cls`` as the event-bus class for ``scheme``.

    Re-registering the same class is a no-op; claiming a scheme held by a
    different class raises ``ValueError`` unless ``replace=True``.
    """
    if not isinstance(scheme, str) or not scheme:
        raise ValueError('event bus scheme must be a non-empty string')
    scheme = scheme.lower()
    with _REGISTRY_LOCK:
        existing = _BUS_SCHEMES.get(scheme)
        if existing is not None and existing is not cls and not replace:
            raise ValueError(
                f'event bus scheme {scheme!r} is already registered to '
                f'{existing.__module__}:{existing.__qualname__}',
            )
        _BUS_SCHEMES[scheme] = cls


def list_event_buses() -> dict[str, type]:
    """Return a snapshot of the scheme -> event-bus-class mapping."""
    with _REGISTRY_LOCK:
        return dict(sorted(_BUS_SCHEMES.items()))


def event_bus_from_url(url: 'str | StoreURL') -> EventBus:
    """Build an event bus from a URL; the scheme selects the implementation.

    Examples::

        event_bus_from_url('local://my-pipeline?retention=64')
        event_bus_from_url('kv://127.0.0.1:7777?launch=1')

    Raises:
        UnknownConnectorSchemeError: if no bus claims the URL's scheme.
    """
    parsed = StoreURL.parse(url)
    cls = _lookup_scheme(parsed.scheme)
    if cls is None:
        known = ', '.join(sorted(_BUS_SCHEMES)) or '<none>'
        raise UnknownConnectorSchemeError(
            f'no event bus is registered for scheme {parsed.scheme!r} '
            f'(known schemes: {known})',
        )
    bus = cls.from_url(parsed)
    parsed.ensure_consumed()
    return bus


def _lookup_scheme(scheme: str) -> type | None:
    """Resolve a bus scheme, importing the built-in buses on first miss."""
    scheme = scheme.lower()
    with _REGISTRY_LOCK:
        cls = _BUS_SCHEMES.get(scheme)
    if cls is None:
        import repro.stream.kv  # noqa: F401 - registers the KV bus

        with _REGISTRY_LOCK:
            cls = _BUS_SCHEMES.get(scheme)
    return cls


# --------------------------------------------------------------------------- #
# In-process bus
# --------------------------------------------------------------------------- #
class _LocalBroker(GroupCommands):
    """The in-process broker behind every bus handle with one ``bus_id``.

    Holds the same state a SimKV server holds — a
    :class:`~repro.kvserver.broker.TopicRing` per topic (paired with the
    condition its fetches wait on) and a
    :class:`~repro.kvserver.broker.GroupState` per consumer group — and
    answers the group commands the way :class:`~repro.kvserver.KVClient`
    does, minus the socket.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.topics: dict[str, tuple[TopicRing, threading.Condition]] = {}
        self.groups: dict[str, GroupState] = {}

    def topic(self, name: str, retention: int) -> tuple[TopicRing, threading.Condition]:
        """Return (creating with ``retention`` on first use) topic ``name``."""
        with self.lock:
            topic = self.topics.get(name)
            if topic is None:
                topic = self.topics[name] = (
                    TopicRing(retention), threading.Condition(),
                )
            return topic

    def _request(self, command: str, key: str | None = None, value: Any = None) -> Any:
        with self.lock:
            group = self.groups.get(key)
            if group is None:
                group = self.groups[key] = GroupState()
            return group.execute(command, value or {}, time.monotonic())


# Named in-process brokers so a bus re-created from its config (or URL) in
# the same process sees the same topics and groups — mirroring
# LocalConnector's store_id.
_BROKERS: dict[str, _LocalBroker] = {}
_BROKERS_LOCK = threading.Lock()


class LocalEventBus:
    """In-process event bus: per-topic bounded ring buffers plus wakeups.

    Args:
        bus_id: name of a process-global broker namespace.  Two buses built
            with the same ``bus_id`` (e.g. one in a producer thread, one in
            a consumer thread) share topics and consumer groups.  Omitted:
            a fresh anonymous namespace (with a generated id, so
            ``config()`` round-trips).
        retention: ring-buffer bound applied to topics created through
            this handle.

    A fetch reads directly from the shared ring, so broker memory per
    topic is exactly the ring: a slow consumer loses aged-out events
    (counted on its subscription) rather than growing any queue.
    """

    scheme = 'local'

    def __init__(
        self,
        bus_id: str | None = None,
        *,
        retention: int = DEFAULT_LOCAL_RETENTION,
    ) -> None:
        if retention < 1:
            raise ValueError('retention must be at least 1')
        from repro.connectors.protocol import new_object_id

        self.bus_id = bus_id if bus_id is not None else new_object_id()
        self.retention = retention
        with _BROKERS_LOCK:
            #: The broker's request client — the group and offset commands,
            #: under the same names ``KVEventBus.client`` answers to.
            self.client = _BROKERS.setdefault(self.bus_id, _LocalBroker())

    def __repr__(self) -> str:
        return f'LocalEventBus(bus_id={self.bus_id!r})'

    def _topic(self, name: str) -> tuple[TopicRing, threading.Condition]:
        return self.client.topic(name, self.retention)

    # -- EventBus protocol ------------------------------------------------- #
    def publish(self, topic: str, payload: 'bytes | bytearray | memoryview') -> int:
        """Publish one payload on ``topic``; returns its sequence number."""
        return self.publish_batch(topic, [payload])[0]

    def publish_batch(self, topic: str, payloads: Sequence[Any]) -> list[int]:
        """Publish several payloads on ``topic`` under one lock acquisition."""
        ring, cond = self._topic(topic)
        datas = [bytes(p) for p in payloads]
        with cond:
            seqs = [ring.append(d) for d in datas]
            cond.notify_all()
        return seqs

    def fetch(self, topic: str, since: int, wait: float = 0.0) -> tuple[list, int]:
        """Read ``topic``'s ring from ``since``, waiting up to ``wait``
        seconds for a publish when nothing is there yet."""
        ring, cond = self._topic(topic)
        with cond:
            if wait > 0:
                cond.wait_for(lambda: ring.next_seq > since, timeout=wait)
            return ring.since(since)

    def subscribe(self, topic: str, *, from_seq: int | None = None) -> Subscription:
        """Return a subscription cursor over ``topic``'s shared ring."""
        return Subscription(self, topic, from_seq)

    def topic_stats(self, topic: str) -> dict[str, Any] | None:
        """Return ring statistics for ``topic`` (``None`` if never used)."""
        with self.client.lock:
            found = self.client.topics.get(topic)
        if found is None:
            return None
        ring, cond = found
        with cond:
            return ring.stats()

    def configure_topic(self, topic: str, *, retention: int) -> None:
        """Set ``topic``'s ring retention, trimming immediately."""
        ring, cond = self._topic(topic)
        with cond:
            ring.set_retention(retention)

    def config(self) -> dict[str, Any]:
        """Return a picklable dict re-creating this bus (same process only)."""
        return {
            'scheme': self.scheme,
            'bus_id': self.bus_id,
            'retention': self.retention,
        }

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> 'LocalEventBus':
        """Rebuild a bus handle from a :meth:`config` dictionary."""
        return cls(config['bus_id'], retention=config['retention'])

    @classmethod
    def from_url(cls, url: 'StoreURL | str') -> 'LocalEventBus':
        """Build from ``local://[bus-id][?retention=N]``."""
        url = StoreURL.parse(url)
        retention = url.pop_int('retention', DEFAULT_LOCAL_RETENTION)
        assert retention is not None
        return cls(url.netloc or None, retention=retention)

    def close(self) -> None:
        """Release this handle (topics persist for other same-id handles)."""

    def __enter__(self) -> 'LocalEventBus':
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()

    def __iter__(self) -> Iterator[str]:
        with self.client.lock:
            return iter(sorted(self.client.topics))


register_event_bus('local', LocalEventBus)


def bus_from_config(config: dict[str, Any]) -> EventBus:
    """Rebuild an event bus from any bus's ``config()`` dictionary.

    The ``scheme`` entry selects the implementation through the registry;
    this is how pickled producers/consumers re-attach to their transport in
    another process.
    """
    scheme = config.get('scheme')
    if not scheme:
        raise ValueError('bus config has no scheme')
    cls = _lookup_scheme(str(scheme))
    if cls is None:
        raise UnknownConnectorSchemeError(
            f'no event bus is registered for scheme {scheme!r}',
        )
    return cls.from_config({k: v for k, v in config.items() if k != 'scheme'})


__all__.append('bus_from_config')
