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

Both ends are the one-partition case of :mod:`repro.stream.groups`.  A
producer always publishes through a
:class:`~repro.stream.groups.PartitionRouter` (``partitions=1`` keeps the
plain topic name; more split the topic over a broker fleet, routed by an
optional ``partition_key`` or round-robin).  A plain consumer is one
partition claim with no coordinator, delivered by the same core as a
:class:`~repro.stream.groups.GroupConsumer`, whose members split the
partitions, commit offsets on ``ack()`` and redeliver a crashed member's
un-acked events.
"""
from __future__ import annotations

from typing import Any
from typing import Callable
from typing import Sequence
from typing import TYPE_CHECKING

from repro.exceptions import StoreError
from repro.proxy.owned import OwnedProxy
from repro.serialize.buffers import payload_nbytes
from repro.serialize.buffers import to_bytes
from repro.serialize.serializer import small_frame_threshold
from repro.store.factory import StoreFactory
from repro.store.registry import get_or_create_store
from repro.stream.bus import EventBus
from repro.stream.bus import bus_from_config
from repro.stream.bus import event_bus_from_url
from repro.stream.events import StreamEvent
from repro.stream.groups import PartitionRouter
from repro.stream.groups import _DeliveryCore
from repro.stream.groups import _PartitionClaim
from repro.stream.groups import partition_for

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.store.lifetimes import Lifetime
    from repro.store.store import Store

__all__ = ['StreamConsumer', 'StreamProducer']

#: Default seconds a consumer waits for the next event before giving up.
DEFAULT_CONSUME_TIMEOUT = 30.0

#: Valid per-item routing policies for ``StreamProducer``.
PRODUCER_POLICIES = ('proxy', 'inline', 'auto')


def _preserialized(data: Any) -> Any:
    """Serializer passed to ``Store.put_batch`` for already-serialized payloads."""
    return data


class StreamProducer:
    """Publishes a stream of objects as store payloads plus tiny events.

    Args:
        store: store the bulk data of each item is put into (any
            connector; the zero-copy path applies unchanged).
        bus: event bus carrying the per-item events, or a bus URL
            (``local://...``, ``kv://host:port``), or a sequence of them
            forming a broker fleet.
        topic: topic the events are published on.
        policy: per-item routing policy — ``'proxy'`` (store + key event,
            the default), ``'inline'`` (payload rides the event: the "data
            rides the message bus" baseline), or
            ``'auto'`` (measure each item's serialized size and inline it
            when at most ``inline_threshold`` bytes, proxy it otherwise —
            small items skip the store round trip entirely, large items
            keep the cheap control plane).  Routes taken are counted in
            ``inline_sends``/``proxy_sends`` and, when the store records
            metrics, under ``stream.inline_sends``/``stream.proxy_sends``.
            Per-call ``send(..., inline=...)`` overrides the policy.
        inline_threshold: byte bound for the ``'auto'`` decision; defaults
            to the serializer's small-frame threshold so the streaming
            fast path and the serializer fast path agree on what "small"
            means.
        serializer: optional per-producer serializer override.
        partitions: split the topic into this many partition topics placed
            over the broker(s) by consistent hashing.  ``1`` (the default)
            keeps the plain topic name; more enable consumer groups to
            divide the stream.
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
        policy: str = 'proxy',
        inline_threshold: int | None = None,
        serializer: Callable[[Any], bytes] | None = None,
        partitions: int = 1,
        replicas: int = 1,
    ) -> None:
        if policy not in PRODUCER_POLICIES:
            raise ValueError(
                f'unknown stream policy {policy!r}; '
                f'expected one of {PRODUCER_POLICIES}',
            )
        if replicas > 1 and partitions < 2:
            raise ValueError('replicas > 1 requires a partitioned topic')
        self.store = store
        # One publish path: a plain topic is a one-partition router (same
        # topic name on the wire), whose owner walk rides out a restart.
        self._router = PartitionRouter(topic, partitions, bus, replicas=replicas)
        self.topic = topic
        self.partitions = partitions
        self.policy = policy
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

    def _route(
        self,
        objs: Sequence[Any],
        metas: 'list[dict[str, Any] | None]',
        policy: str,
    ) -> list[StreamEvent]:
        """Route each item per ``policy`` and build its event.

        Inlined items carry their serialized bytes.  Every stored item goes
        through one ``put_batch`` (one connector round trip on batching
        connectors); under ``'auto'`` the bytes serialized to measure an
        item are the bytes stored, so nothing is serialized twice.
        """
        serializer = (
            self._serializer if self._serializer is not None
            else self.store.serializer
        )
        events: list[StreamEvent | None] = [None] * len(objs)
        stored: list[tuple[int, Any, int]] = []
        for index, obj in enumerate(objs):
            if policy == 'proxy':
                stored.append((index, obj, 0))
                continue
            data = serializer(obj)
            nbytes = payload_nbytes(data)
            if policy == 'inline' or nbytes <= self.inline_threshold:
                self._record_route(True, nbytes)
                events[index] = StreamEvent(
                    metadata=dict(metas[index] or {}),
                    nbytes=nbytes,
                    payload=to_bytes(data),
                )
            else:
                stored.append((index, data, nbytes))
        if stored:
            keys = self.store.put_batch(
                [data for _, data, _ in stored],
                serializer=self._serializer if policy == 'proxy' else _preserialized,
            )
            for (index, _, nbytes), key in zip(stored, keys):
                self._record_route(False, nbytes)
                events[index] = StreamEvent(
                    key=key, metadata=dict(metas[index] or {}),
                )
        return events  # type: ignore[return-value]

    def _partition_of(self, partition_key: 'str | None') -> int:
        """Partition index for one send: keyed hash or round-robin."""
        if partition_key is not None:
            return partition_for(partition_key, self.partitions)
        index = self._rr % self.partitions
        self._rr += 1
        return index

    def send(
        self,
        obj: Any,
        *,
        metadata: dict[str, Any] | None = None,
        inline: bool | None = None,
        partition_key: str | None = None,
    ) -> int:
        """Publish one item; returns its sequence number on its partition.

        The item's bytes go through the store (zero-copy where the
        connector supports it) and only the key travels in the event —
        unless ``inline`` embeds the payload in the event itself.  On a
        partitioned topic the event lands on the partition chosen by
        ``partition_key`` (stable hashing: equal keys share a partition,
        preserving their relative order) or round-robin when omitted.

        Raises:
            StoreError: if the producer is already closed.
        """
        return self.send_batch(
            [obj], metadata=[metadata], inline=inline,
            partition_keys=[partition_key],
        )[0]

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
        if self._closed:
            raise StoreError(
                f'producer for topic {self.topic!r} is closed; the '
                'end-of-stream marker has already been published',
            )
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
        events = self._route(objs, metas, policy)
        by_partition: dict[int, list[int]] = {}
        for index, pkey in enumerate(pkeys):
            by_partition.setdefault(self._partition_of(pkey), []).append(index)
        seqs = [0] * len(events)
        for partition, indices in by_partition.items():
            batch_seqs = self._router.publish_batch(
                self._router.topics[partition],
                [events[i].encode() for i in indices],
            )
            for i, seq in zip(indices, batch_seqs):
                seqs[i] = seq
        self.sent += len(objs)
        return seqs

    def close(self, *, end: bool = True) -> None:
        """Mark the stream finished.

        Args:
            end: publish an end-of-stream event on every partition so
                iterating consumers terminate (set ``False`` when other
                producers will keep publishing on the topic).

        The store and bus are shared handles and are *not* closed.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if end:
            # Every partition gets its own marker: group members end
            # independently once each of their partitions is drained.
            for topic in self._router.topics:
                self._router.publish(topic, StreamEvent(end=True).encode())

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
        return {
            'store_config': self.store.config(),
            'router_config': self._router.config(),
            'policy': self.policy,
            'inline_threshold': self.inline_threshold,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        router = state['router_config']
        self.__init__(  # type: ignore[misc]
            get_or_create_store(state['store_config']),
            [bus_from_config(config) for config in router['brokers']],
            router['topic'],
            policy=state['policy'],
            inline_threshold=state['inline_threshold'],
            partitions=router['partitions'],
            replicas=router['replicas'],
        )


class StreamConsumer(_DeliveryCore):
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
            events published after the consumer subscribes (on its first
            read).
        timeout: seconds to wait for the next event before iteration
            raises ``TimeoutError`` (``None`` = wait forever).
        prefetch: resolve up to this many upcoming items in the background
            while the caller processes the current one — store gets overlap
            with consumption, pipelining the data plane the same way
            ``resolve_async`` does for one-shot proxies (0 disables).

    Iterating yields one item per event: a :class:`~repro.proxy.Proxy`
    (or ``OwnedProxy``) for proxied items, or the deserialized object for
    inline events.  Iteration ends at an end-of-stream event.  For
    committed offsets and at-least-once redelivery across consumers,
    construct a :class:`~repro.stream.groups.GroupConsumer` instead.
    """

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
    ) -> None:
        if owned and lifetime is not None:
            raise ValueError(
                'owned=True and lifetime=... are mutually exclusive: owned '
                'items are evicted by their owner, not by a lifetime',
            )
        self.bus = event_bus_from_url(bus) if isinstance(bus, str) else bus
        # A one-partition router over the one broker: its owner walk is
        # what rides out a restart of the broker.
        super().__init__(
            store, PartitionRouter(topic, 1, self.bus), timeout, prefetch,
        )
        self.owned = owned
        self.lifetime = lifetime
        # The claim's cursor is from_seq until it subscribes (None: the
        # head of the topic at that moment).
        self._claims[topic] = _PartitionClaim(topic, from_seq, 0)

    def __repr__(self) -> str:
        return (
            f'StreamConsumer(store={self.store.name!r}, topic={self.topic!r})'
        )

    def _sync_claims(self) -> bool:
        """Subscribe the one claim on first read."""
        claim = self._claims[self.topic]
        if claim.subscription is None:
            self._open(claim, claim.position)
            claim.read_pos = claim.position = claim.subscription.position
        return False

    def _proxy(self, key: Any) -> Any:
        if self.owned:
            return OwnedProxy._from_store(
                StoreFactory(key, self.store.config(), owned=True),
            )
        return super()._proxy(key)

    def _deliver(self, claim: _PartitionClaim, event: StreamEvent, item: Any) -> bool:
        """Owned items evict themselves and lifetime-bound keys go with their
        scope; every other delivered key waits for :meth:`ack`."""
        if event.inline or self.owned:
            return True
        if self.lifetime is not None:
            self.lifetime.add_key(event.key, store=self.store)
            return True
        return super()._deliver(claim, event, item)

    # -- eviction ----------------------------------------------------------- #
    def ack(self) -> int:
        """Evict every item delivered since the last ack; returns the count.

        One ``evict_batch`` round trip per call (recorded under the
        store's single ``evict_batch`` metric).  Only items already handed
        to the caller count: prefetched items still in the window stay
        stored.  Owned and lifetime-bound items are excluded — their
        eviction is governed by the owner drop or the lifetime close
        respectively.
        """
        return self._evict_unacked()

    def close(self, *, evict_pending: bool = True) -> None:
        """Detach from the topic.

        Args:
            evict_pending: evict items delivered but never acked (plain
                mode only) — the default, so closing a consumer can never
                strand keys in the backing store.  Pass ``False`` to leave
                them stored (e.g. when another party will resolve them);
                the caller then owns their eviction.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        subscription = self._claims[self.topic].subscription
        if subscription is not None:
            subscription.close()
        if evict_pending:
            self.ack()

    # -- pickling ----------------------------------------------------------- #
    def __getstate__(self) -> dict[str, Any]:
        if self.lifetime is not None:
            raise StoreError(
                'a consumer bound to a lifetime cannot be pickled (the '
                'lifetime and its eviction duty stay in this process); '
                'bind a lifetime in the target process instead',
            )
        claim = self._claims[self.topic]
        return {
            'store_config': self.store.config(),
            'bus_config': self.bus.config(),
            'topic': self.topic,
            'owned': self.owned,
            # The yield cursor: items read ahead but never yielded replay.
            'from_seq': claim.position,
            'timeout': self.timeout,
            'prefetch': self.prefetch,
            # The clone inherits the eviction duty for everything this
            # consumer delivered but never acked — a pickle handoff must
            # not strand keys (evict_batch tolerates double eviction).
            'unacked': list(claim.unacked),
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(  # type: ignore[misc]
            get_or_create_store(state['store_config']),
            bus_from_config(state['bus_config']),
            state['topic'],
            owned=state['owned'],
            from_seq=state['from_seq'],
            timeout=state['timeout'],
            prefetch=state['prefetch'],
        )
        self._claims[self.topic].unacked = list(state['unacked'])
