"""Streaming proxy channels: ``StreamProducer`` and ``StreamConsumer``.

The streaming extension of the paper's model: a producer publishes an
*unbounded sequence* of objects, and each object's bulk data flows through
a mediated channel (a :class:`~repro.store.Store`) while only a tiny
:class:`~repro.stream.StreamEvent` — key plus metadata — travels on the
event bus.  Consumers iterate the topic and receive lazy proxies, so the
control plane stays cheap no matter the item size and consumers resolve
bulk data directly from the store, exactly like one-shot proxies but for
sustained traffic.

Lifetime management is first-class because streams never end on their own:

* ``owned=True`` consumers yield :class:`~repro.proxy.OwnedProxy` items —
  dropping the proxy (GC, ``drop()``, context exit) evicts the backing
  key, so a consume-and-discard loop cannot fill the backing store.
* Plain consumers track delivered keys; :meth:`StreamConsumer.ack`
  batch-evicts everything delivered since the last ack (one
  ``evict_batch`` round trip), and a caller-supplied ``lifetime`` binds
  every delivered key to an enclosing scope as a safety net.

Producers and consumers pickle: the state that travels is the store
config, the bus config, the topic, and (for consumers) the current
position plus any delivered-but-unacked keys — so a consumer can be
shipped to another process, resume where it left off, and still evict
everything it was responsible for, the same way proxies rebuild their
stores anywhere.

Two fleet-scale extensions live on top of this module:

* ``StreamProducer(partitions=N, ...)`` splits the topic into N partition
  topics spread deterministically over a broker fleet (see
  :class:`~repro.stream.groups.PartitionRouter`), routing each send by an
  optional ``partition_key`` (stable ``blake2b`` hashing) or round-robin.
* ``StreamConsumer(group=..., partitions=N)`` constructs a
  :class:`~repro.stream.groups.GroupConsumer` instead: members of the
  group split the partitions, commit offsets on ``ack()``, and redeliver
  a crashed member's un-acked events — at-least-once delivery.
"""
from __future__ import annotations

import time
from collections import deque
from typing import Any
from typing import Callable
from typing import Iterator
from typing import Sequence
from typing import TYPE_CHECKING

from repro.exceptions import StoreError
from repro.proxy.owned import OwnedProxy
from repro.proxy.proxy import Proxy
from repro.proxy.resolve import resolve_async
from repro.serialize.buffers import payload_nbytes
from repro.serialize.buffers import to_bytes
from repro.serialize.serializer import small_frame_threshold
from repro.store.factory import StoreFactory
from repro.store.registry import get_or_create_store
from repro.stream.bus import EventBus
from repro.stream.bus import bus_from_config
from repro.stream.bus import event_bus_from_url
from repro.stream.events import StreamEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.store.lifetimes import Lifetime
    from repro.store.store import Store

__all__ = ['StreamConsumer', 'StreamProducer']

#: Default seconds a consumer waits for the next event before giving up.
DEFAULT_CONSUME_TIMEOUT = 30.0

#: Valid per-item routing policies for ``StreamProducer``.
PRODUCER_POLICIES = ('proxy', 'inline', 'auto')


def _resolve_bus(bus: 'EventBus | str') -> EventBus:
    """Accept either an event-bus instance or a bus URL."""
    if isinstance(bus, str):
        return event_bus_from_url(bus)
    return bus


def _preserialized(data: Any) -> Any:
    """Serializer passed to ``Store.put`` for already-serialized payloads."""
    return data


class StreamProducer:
    """Publishes a stream of objects as store payloads plus tiny events.

    Args:
        store: store the bulk data of each item is put into (any
            connector; the zero-copy path applies unchanged).
        bus: event bus carrying the per-item events, or a bus URL
            (``local://...``, ``kv://host:port``).
        topic: topic the events are published on.
        inline: embed each item's serialized payload in the event itself
            instead of storing it — the "data rides the message bus"
            baseline.  Per-call ``send(..., inline=...)`` overrides this.
            Shorthand for ``policy='inline'``.
        policy: per-item routing policy — ``'proxy'`` (store + key event,
            the default), ``'inline'`` (payload rides the event), or
            ``'auto'`` (measure each item's serialized size and inline it
            when at most ``inline_threshold`` bytes, proxy it otherwise —
            small items skip the store round trip entirely, large items
            keep the cheap control plane).  Routes taken are counted in
            ``inline_sends``/``proxy_sends`` and, when the store records
            metrics, under ``stream.inline_sends``/``stream.proxy_sends``.
        inline_threshold: byte bound for the ``'auto'`` decision; defaults
            to the serializer's small-frame threshold so the streaming
            fast path and the serializer fast path agree on what "small"
            means.
        serializer: optional per-producer serializer override.
        partitions: split the topic into this many partition topics placed
            over the broker(s) by consistent hashing.  ``1`` (the default)
            keeps the plain, unpartitioned topic; more enable consumer
            groups to divide the stream (``bus`` may then be a sequence of
            buses/URLs forming a broker fleet).
        replicas: mirror each partition's events onto this many ring
            brokers (requires ``partitions > 1``).  Above 1, publishes
            survive a broker death: the producer fails over to the next
            live replica with jittered backoff.

    Thread safety: ``send``/``send_batch`` may be called from many threads
    concurrently (stores and buses are thread-safe); ``close`` must not
    race sends.
    """

    def __init__(
        self,
        store: 'Store',
        bus: 'EventBus | str | Sequence[EventBus | str]',
        topic: str,
        *,
        inline: bool = False,
        policy: str | None = None,
        inline_threshold: int | None = None,
        serializer: Callable[[Any], bytes] | None = None,
        partitions: int = 1,
        replicas: int = 1,
    ) -> None:
        if policy is None:
            policy = 'inline' if inline else 'proxy'
        elif policy not in PRODUCER_POLICIES:
            raise ValueError(
                f'unknown stream policy {policy!r}; '
                f'expected one of {PRODUCER_POLICIES}',
            )
        if partitions < 1:
            raise ValueError('partitions must be at least 1')
        if replicas > 1 and partitions < 2:
            raise ValueError('replicas > 1 requires a partitioned topic')
        self.store = store
        if partitions > 1 or (
            not isinstance(bus, (str, bytes)) and isinstance(bus, Sequence)
        ):
            from repro.stream.groups import PartitionRouter

            self._router = PartitionRouter(
                topic, partitions, bus, replicas=replicas,
            )
            self.bus = self._router.brokers[0]
        else:
            self._router = None
            self.bus = _resolve_bus(bus)  # type: ignore[arg-type]
        self.topic = topic
        self.partitions = partitions
        self.policy = policy
        self.inline = policy == 'inline'
        self.inline_threshold = (
            inline_threshold if inline_threshold is not None
            else small_frame_threshold()
        )
        self._serializer = serializer
        self._closed = False
        self._rr = 0
        self.sent = 0
        self.inline_sends = 0
        self.proxy_sends = 0

    def __repr__(self) -> str:
        return (
            f'StreamProducer(store={self.store.name!r}, topic={self.topic!r})'
        )

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(
                f'producer for topic {self.topic!r} is closed; the '
                'end-of-stream marker has already been published',
            )

    def _record_route(self, inline: bool, nbytes: int) -> None:
        """Count one routed send (and mirror it into the store's metrics)."""
        metrics = self.store.metrics
        if inline:
            self.inline_sends += 1
            if metrics is not None:
                metrics.record('stream.inline_sends', 0.0, nbytes)
        else:
            self.proxy_sends += 1
            if metrics is not None:
                metrics.record('stream.proxy_sends', 0.0, nbytes)

    def _event_for(
        self,
        obj: Any,
        metadata: dict[str, Any] | None,
        policy: str,
    ) -> StreamEvent:
        """Route one item per ``policy`` and build its event."""
        if policy != 'proxy':
            serializer = (
                self._serializer if self._serializer is not None
                else self.store.serializer
            )
            data = serializer(obj)
            nbytes = payload_nbytes(data)
            if policy == 'inline' or nbytes <= self.inline_threshold:
                self._record_route(True, nbytes)
                return StreamEvent(
                    metadata=dict(metadata or {}),
                    nbytes=nbytes,
                    payload=to_bytes(data),
                )
            # Too large to inline: reuse the bytes already serialized for
            # the size measurement rather than serializing twice.
            key = self.store.put(data, serializer=_preserialized)
            self._record_route(False, nbytes)
            return StreamEvent(key=key, metadata=dict(metadata or {}))
        key = self.store.put(obj, serializer=self._serializer)
        self._record_route(False, 0)
        return StreamEvent(key=key, metadata=dict(metadata or {}))

    def _route_batch(
        self,
        objs: list[Any],
        metas: 'list[dict[str, Any] | None]',
    ) -> list[StreamEvent]:
        """Auto-route a batch: inline the small items, batch-store the rest.

        All over-threshold items still go through one ``put_batch`` (one
        connector round trip on batching connectors), with their
        already-serialized bytes reused.
        """
        serializer = (
            self._serializer if self._serializer is not None
            else self.store.serializer
        )
        events: list[StreamEvent | None] = [None] * len(objs)
        to_store: list[tuple[int, Any, int]] = []
        for index, obj in enumerate(objs):
            data = serializer(obj)
            nbytes = payload_nbytes(data)
            if nbytes <= self.inline_threshold:
                self._record_route(True, nbytes)
                events[index] = StreamEvent(
                    metadata=dict(metas[index] or {}),
                    nbytes=nbytes,
                    payload=to_bytes(data),
                )
            else:
                to_store.append((index, data, nbytes))
        if to_store:
            keys = self.store.put_batch(
                [data for _, data, _ in to_store],
                serializer=_preserialized,
            )
            for (index, _, nbytes), key in zip(to_store, keys):
                self._record_route(False, nbytes)
                events[index] = StreamEvent(
                    key=key, metadata=dict(metas[index] or {}),
                )
        return events  # type: ignore[return-value]

    def _partition_of(self, partition_key: 'str | None') -> int:
        """Partition index for one send: keyed hash or round-robin."""
        if self._router is None:
            return 0
        if partition_key is not None:
            from repro.stream.groups import partition_for

            return partition_for(partition_key, self.partitions)
        index = self._rr % self.partitions
        self._rr += 1
        return index

    def _publish(self, partition: int, data: bytes) -> int:
        if self._router is None:
            return self.bus.publish(self.topic, data)
        return self._router.publish(self._router.topics[partition], data)

    def send(
        self,
        obj: Any,
        *,
        metadata: dict[str, Any] | None = None,
        inline: bool | None = None,
        partition_key: str | None = None,
    ) -> int:
        """Publish one item; returns its sequence number on its partition.

        The item's bytes go through ``store.put`` (zero-copy where the
        connector supports it) and only the key travels in the event —
        unless ``inline`` embeds the payload in the event itself.  On a
        partitioned topic the event lands on the partition chosen by
        ``partition_key`` (stable hashing: equal keys share a partition,
        preserving their relative order) or round-robin when omitted.

        Raises:
            StoreError: if the producer is already closed.
        """
        self._check_open()
        policy = (
            self.policy if inline is None
            else ('inline' if inline else 'proxy')
        )
        event = self._event_for(obj, metadata, policy)
        seq = self._publish(self._partition_of(partition_key), event.encode())
        self.sent += 1
        return seq

    def send_batch(
        self,
        objs: Sequence[Any],
        *,
        metadata: Sequence[dict[str, Any] | None] | None = None,
        inline: bool | None = None,
        partition_keys: Sequence[str | None] | None = None,
    ) -> list[int]:
        """Publish several items with batched store and bus operations.

        Bulk data goes through one ``store.put_batch`` (one connector
        round trip on batching connectors) and all events through one
        ``publish_batch`` frame per partition touched.
        """
        self._check_open()
        policy = (
            self.policy if inline is None
            else ('inline' if inline else 'proxy')
        )
        metas = list(metadata) if metadata is not None else [None] * len(objs)
        if len(metas) != len(objs):
            raise ValueError('metadata must match objs in length')
        pkeys = (
            list(partition_keys) if partition_keys is not None
            else [None] * len(objs)
        )
        if len(pkeys) != len(objs):
            raise ValueError('partition_keys must match objs in length')
        if policy == 'inline':
            events = [
                self._event_for(obj, meta, 'inline')
                for obj, meta in zip(objs, metas)
            ]
        elif policy == 'auto':
            events = self._route_batch(list(objs), metas)
        else:
            keys = self.store.put_batch(list(objs), serializer=self._serializer)
            events = [
                StreamEvent(key=key, metadata=dict(meta or {}))
                for key, meta in zip(keys, metas)
            ]
            for _ in keys:
                self._record_route(False, 0)
        if self._router is None:
            seqs = list(self.bus.publish_batch(
                self.topic, [event.encode() for event in events],
            ))
        else:
            by_partition: dict[int, list[int]] = {}
            for index, pkey in enumerate(pkeys):
                by_partition.setdefault(
                    self._partition_of(pkey), [],
                ).append(index)
            seqs = [0] * len(events)
            for partition, indices in by_partition.items():
                topic = self._router.topics[partition]
                batch_seqs = self._router.publish_batch(
                    topic, [events[i].encode() for i in indices],
                )
                for i, seq in zip(indices, batch_seqs):
                    seqs[i] = seq
        self.sent += len(objs)
        return seqs

    def close(self, *, end: bool = True) -> None:
        """Mark the stream finished.

        Args:
            end: publish an end-of-stream event so iterating consumers
                terminate (set ``False`` when other producers will keep
                publishing on the topic).

        The store and bus are shared handles and are *not* closed.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if end:
            if self._router is None:
                self.bus.publish(self.topic, StreamEvent(end=True).encode())
            else:
                # Every partition gets its own marker: group members end
                # independently once each of their partitions is drained.
                for topic in self._router.topics:
                    self._router.publish(
                        topic, StreamEvent(end=True).encode(),
                    )

    def __enter__(self) -> 'StreamProducer':
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close(end=exc_type is None)

    # -- pickling ----------------------------------------------------------- #
    def __getstate__(self) -> dict[str, Any]:
        if self._serializer is not None:
            raise StoreError(
                'a producer with a custom serializer cannot be pickled '
                '(callables do not travel); create it in the target process',
            )
        state = {
            'store_config': self.store.config(),
            'bus_config': self.bus.config(),
            'topic': self.topic,
            'inline': self.inline,
            'policy': self.policy,
            'inline_threshold': self.inline_threshold,
        }
        if self._router is not None:
            state['router_config'] = self._router.config()
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.store = get_or_create_store(state['store_config'])
        router_config = state.get('router_config')
        if router_config is not None:
            from repro.stream.groups import PartitionRouter

            self._router = PartitionRouter.from_config(router_config)
            self.bus = self._router.brokers[0]
            self.partitions = self._router.partitions
        else:
            self._router = None
            self.bus = bus_from_config(state['bus_config'])
            self.partitions = 1
        self.topic = state['topic']
        # 'policy' may be absent in state pickled by older producers.
        self.policy = state.get(
            'policy', 'inline' if state['inline'] else 'proxy',
        )
        self.inline = self.policy == 'inline'
        self.inline_threshold = state.get(
            'inline_threshold', small_frame_threshold(),
        )
        self._serializer = None
        self._closed = False
        self._rr = 0
        self.sent = 0
        self.inline_sends = 0
        self.proxy_sends = 0


class StreamConsumer:
    """Iterates a topic, yielding a lazy proxy per published item.

    Args:
        store: store the items' bulk data lives in (typically built from
            the same URL as the producer's).
        bus: event bus to subscribe on, or a bus URL.
        topic: topic to consume.
        owned: yield :class:`~repro.proxy.OwnedProxy` items — each consumed
            item is auto-evicted when its proxy is dropped, so backing
            stores do not fill under sustained traffic.
        lifetime: a :class:`~repro.store.lifetimes.Lifetime` every
            delivered key is additionally bound to (scope-level cleanup
            for items the consumer never acked).  Mutually exclusive with
            ``owned``.
        from_seq: consume from this topic sequence number, replaying
            whatever the bus retention still holds; ``None`` consumes only
            events published after subscribing.
        timeout: seconds to wait for the next event before iteration
            raises ``TimeoutError`` (``None`` = wait forever).
        prefetch: resolve up to this many upcoming items in the background
            while the caller processes the current one — store gets overlap
            with consumption, pipelining the data plane the same way
            ``resolve_async`` does for one-shot proxies (0 disables).

    Iterating yields one item per event: a :class:`~repro.proxy.Proxy`
    (or ``OwnedProxy``) for proxied items, or the deserialized object for
    inline events.  Iteration ends at an end-of-stream event.

    Passing ``group=...`` (with ``partitions=N``) returns a
    :class:`~repro.stream.groups.GroupConsumer` instead: a member of a
    consumer group with committed offsets and at-least-once redelivery.
    """

    def __new__(
        cls,
        store: 'Store | None' = None,
        bus: Any = None,
        topic: str | None = None,
        **kwargs: Any,
    ) -> Any:
        """Dispatch to a group consumer when ``group=`` is given."""
        if kwargs.get('group') is not None:
            from repro.stream.groups import GroupConsumer

            return GroupConsumer(store, bus, topic, **kwargs)
        return super().__new__(cls)

    def __init__(
        self,
        store: 'Store',
        bus: 'EventBus | str',
        topic: str,
        *,
        owned: bool = False,
        lifetime: 'Lifetime | None' = None,
        from_seq: int | None = None,
        timeout: float | None = DEFAULT_CONSUME_TIMEOUT,
        prefetch: int = 0,
        group: str | None = None,
        replicas: int = 1,
    ) -> None:
        assert group is None  # group=... dispatched to GroupConsumer in __new__
        if replicas != 1:
            raise ValueError(
                'replicas requires a consumer group (pass group=... and '
                'partitions=N); a plain consumer has no partition ring to '
                'fail over on',
            )
        if owned and lifetime is not None:
            raise ValueError(
                'owned=True and lifetime=... are mutually exclusive: owned '
                'items are evicted by their owner, not by a lifetime',
            )
        if prefetch < 0:
            raise ValueError('prefetch must be non-negative')
        self.store = store
        self.bus = _resolve_bus(bus)
        self.topic = topic
        self.owned = owned
        self.lifetime = lifetime
        self.timeout = timeout
        self.prefetch = prefetch
        self._from_seq = from_seq
        self._subscription: Any = None
        self._pending: list[StreamEvent] = []
        self._ready: deque[tuple[StreamEvent, Any]] = deque()
        self._unacked: list[Any] = []
        self._ended = False
        self._closed = False
        self.delivered = 0

    def __repr__(self) -> str:
        return (
            f'StreamConsumer(store={self.store.name!r}, topic={self.topic!r})'
        )

    # -- event plumbing ----------------------------------------------------- #
    def _ensure_subscribed(self) -> Any:
        """Subscribe through a one-partition router (same topic name on the
        wire), whose owner walk rides out a restart of the broker."""
        if self._subscription is None:
            from repro.stream.groups import PartitionRouter

            self._subscription = PartitionRouter(
                self.topic, 1, self.bus,
            ).subscribe(self.topic, from_seq=self._from_seq)
        return self._subscription

    @property
    def lost(self) -> int:
        """Events that aged out of bus retention before this consumer saw them."""
        subscription = self._subscription
        return subscription.lost if subscription is not None else 0

    def _wait_for_events(self) -> None:
        """Block until at least one decoded event is pending (or stream end).

        Raises:
            TimeoutError: when nothing arrives within ``timeout`` seconds.
        """
        deadline = (
            None if self.timeout is None
            else time.monotonic() + self.timeout
        )
        while not self._pending:
            if self._closed:
                return
            remaining: float | None = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f'no event on topic {self.topic!r} within '
                        f'{self.timeout}s',
                    )
            # An empty batch is not necessarily a timeout (duplicate-only
            # pushes, a reconnect wake-up): keep polling until the deadline.
            batch = self._ensure_subscribed().next_batch(timeout=remaining)
            self._pending.extend(
                StreamEvent.decode(data, seq=seq) for seq, data in batch
            )

    def _item_for(self, event: StreamEvent) -> Any:
        """Materialize one event: proxy, owned proxy, or inline object."""
        if event.inline:
            assert event.payload is not None
            return self.store.deserializer(event.payload)
        if self.owned:
            return OwnedProxy._from_store(
                StoreFactory(event.key, self.store.config(), owned=True),
            )
        if self.lifetime is not None:
            self.lifetime.add_key(event.key, store=self.store)
        else:
            self._unacked.append(event.key)
        return Proxy(StoreFactory(event.key, self.store.config()))

    def _top_up_ready(self) -> None:
        """Materialize pending events into the delivery window.

        With ``prefetch > 0`` up to that many items beyond the next one are
        materialized early and their resolution kicked off in the
        background, so the store gets of upcoming items overlap with the
        caller's processing of the current one.
        """
        window = self.prefetch + 1
        while self._pending and len(self._ready) < window and not self._ended:
            event = self._pending.pop(0)
            if event.end:
                self._ended = True
                return
            item = self._item_for(event)
            if self.prefetch and not event.inline and not self.owned:
                resolve_async(item)
            self._ready.append((event, item))

    # -- iteration ---------------------------------------------------------- #
    def events(self) -> Iterator[tuple[StreamEvent, Any]]:
        """Yield ``(event, item)`` pairs — items plus their metadata/seq."""
        while True:
            self._top_up_ready()
            if self._ready:
                pair = self._ready.popleft()
                self.delivered += 1
                yield pair
                continue
            if self._ended or self._closed:
                return
            self._wait_for_events()

    def __iter__(self) -> Iterator[Any]:
        for _event, item in self.events():
            yield item

    # -- eviction ----------------------------------------------------------- #
    def ack(self) -> int:
        """Evict every item delivered since the last ack; returns the count.

        One ``evict_batch`` round trip per call (recorded under the
        store's single ``evict_batch`` metric).  Owned and lifetime-bound
        items are excluded — their eviction is governed by the owner drop
        or the lifetime close respectively.
        """
        keys, self._unacked = self._unacked, []
        if keys:
            self.store.evict_batch(keys)
        return len(keys)

    def close(self, *, evict_pending: bool = True) -> None:
        """Detach from the topic.

        Args:
            evict_pending: evict items delivered but never acked (plain
                mode only) — the default, so closing a consumer can never
                strand keys in the backing store.  Pass ``False`` to leave
                them stored (e.g. when another party will resolve them);
                the caller then owns their eviction.
        """
        if self._closed:
            return
        self._closed = True
        if self._subscription is not None:
            self._subscription.close()
            self._subscription = None
        if evict_pending:
            self.ack()

    def __enter__(self) -> 'StreamConsumer':
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()

    # -- pickling ----------------------------------------------------------- #
    def __getstate__(self) -> dict[str, Any]:
        if self.lifetime is not None:
            raise StoreError(
                'a consumer bound to a lifetime cannot be pickled (the '
                'lifetime and its eviction duty stay in this process); '
                'bind a lifetime in the target process instead',
            )
        subscription = self._subscription
        if self._ready:
            # Materialized-but-undelivered items replay on resume.
            position: int | None = self._ready[0][0].seq
        elif self._pending:
            # Decoded-but-undelivered events replay on resume.
            position = self._pending[0].seq
        elif subscription is not None:
            position = subscription.position
        else:
            position = self._from_seq
        return {
            'store_config': self.store.config(),
            'bus_config': self.bus.config(),
            'topic': self.topic,
            'owned': self.owned,
            'from_seq': position,
            'timeout': self.timeout,
            'prefetch': self.prefetch,
            # The clone inherits the eviction duty for everything this
            # consumer delivered but never acked — a pickle handoff must
            # not strand keys (evict_batch tolerates double eviction).
            'unacked': list(self._unacked),
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(  # type: ignore[misc]
            get_or_create_store(state['store_config']),
            bus_from_config(state['bus_config']),
            state['topic'],
            owned=state['owned'],
            from_seq=state['from_seq'],
            timeout=state['timeout'],
            prefetch=state.get('prefetch', 0),
        )
        self._unacked = list(state.get('unacked', []))
