"""Consumer groups with at-least-once delivery over partitioned topics.

The PR 5 bus serves one broker and independent subscribers: every
subscriber sees every event, and a consumer that crashes with delivered-
but-unprocessed events silently strands them (and their backing proxy
keys).  This module turns the bus into a fleet-scale delivery substrate:

* **Partitioned topics** — a topic is split into N partition topics
  (``{topic}.p{i}``) spread across any number of brokers by a
  :class:`~repro.cluster.ring.HashRing` over stable broker ids
  (:func:`~repro.stream.bus.broker_id`).  Placement is deterministic and
  coordinator-free: every producer and consumer handed the same broker
  URLs computes the same partition -> broker map, the same ``blake2b``
  scheme :mod:`repro.cluster` uses for key placement.
* **Consumer groups** — members of a group split the partitions among
  themselves (round-robin over the sorted member ids, recomputed locally
  by every member from the membership view, so assignment needs no
  central assignor).  The group's *designated broker* (``ring.primary``
  over the group name) tracks membership with leased heartbeats,
  per-partition **committed offsets** (advanced only on
  :meth:`GroupConsumer.ack`) and delivered **watermarks** (the furthest
  position any member reported) in a
  :class:`~repro.kvserver.broker.GroupState` — the same class whether the
  broker is a SimKV server or the in-process bus; a
  :class:`GroupCoordinator` is the client handle that reaches it.
* **At-least-once redelivery** — when a member misses its heartbeats the
  broker expires it and bumps the group generation; survivors detect the
  change on their next heartbeat, claim the dead member's partitions, and
  resume from the *committed* offset — everything the dead member
  delivered but never acked is replayed from the topic ring's retention.
  Events inside the redelivery window whose keys were already evicted
  (the dead member crashed mid-ack) are recognized and skipped, so a
  crash at any instant neither strands keys nor double-processes acked
  work.  Per-group ``delivered`` / ``redelivered`` / ``lost`` /
  ``deduplicated`` accounting is kept on the consumer and surfaced
  through store metrics (``stream.group.*``).
* **One delivery core** — a partition claimed by a member and the topic
  a plain :class:`~repro.stream.StreamConsumer` reads are the same
  ``_PartitionClaim``, read and delivered by the same ``_DeliveryCore``:
  a plain stream is a group of one member with one claim and no
  coordinator.  A group member adds only membership, redelivery and the
  fenced ack on top.
* **Broker failover** — with ``replicas > 1`` a publish goes to the
  partition's ring primary, which numbers the events, and is mirrored
  with those numbers onto the next ring owners (``REPL_PUBLISH``).  A
  streak of :class:`~repro.exceptions.NodeUnavailableError` marks a
  broker dead in the router's
  :class:`~repro.cluster.membership.ClusterMembership`.  When a claim's
  cursor fails, the core opens a new one *from the old cursor's
  position* on the next live owner; the numbering is shared, so the
  resume is exact.  The ring stays static over the full fleet: failover
  changes which owner serves a partition, never the owner list, so
  processes with independent failure detectors converge on the same
  replica.

Delivery guarantees, by construction:

============================  ======================================
mode                          guarantee
============================  ======================================
inline events                 at-most-once (data dies with the event)
plain consumer + ``ack``      at-most-once per consumer (no redelivery)
``GroupConsumer`` + ``ack``   at-least-once across the group
============================  ======================================
"""
from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any
from typing import Iterator
from typing import Sequence
from typing import TYPE_CHECKING

from repro.cluster.membership import ClusterMembership
from repro.cluster.ring import HashRing
from repro.cluster.ring import stable_hash64
from repro.exceptions import ConnectorError
from repro.exceptions import GroupMembershipError
from repro.exceptions import NodeUnavailableError
from repro.exceptions import StoreError
from repro.exceptions import StreamGroupError
from repro.exceptions import ProxyResolveError
from repro.proxy.proxy import Proxy
from repro.proxy.resolve import resolve
from repro.proxy.resolve import resolve_async
from repro.faults.retry import DEFAULT_RECONNECT_POLICY
from repro.kvserver.broker import DEFAULT_SESSION_TIMEOUT
from repro.kvserver.broker import GROUP_COMMANDS
from repro.store.factory import StoreFactory
from repro.stream.bus import EventBus
from repro.stream.bus import broker_id
from repro.stream.bus import bus_from_config
from repro.stream.bus import event_bus_from_url
from repro.stream.events import StreamEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.store.store import Store

__all__ = [
    'DEFAULT_SESSION_TIMEOUT',
    'GroupConsumer',
    'GroupCoordinator',
    'PartitionRouter',
    'assign_partitions',
    'partition_for',
    'partition_topics',
]

#: Fraction of the session timeout between heartbeats (3 beats per lease).
_HEARTBEAT_FRACTION = 3.0


def partition_topics(topic: str, partitions: int) -> list[str]:
    """The concrete per-partition topic names of ``topic``.

    One partition keeps the plain topic name, so ``partitions=1`` is wire-
    compatible with unpartitioned producers and subscribers; more yield
    ``{topic}.p0 .. {topic}.p{N-1}``.
    """
    if partitions < 1:
        raise ValueError('partitions must be at least 1')
    if partitions == 1:
        return [topic]
    return [f'{topic}.p{i}' for i in range(partitions)]


def partition_for(partition_key: str, partitions: int) -> int:
    """Deterministic partition index for ``partition_key``.

    :func:`repro.cluster.ring.stable_hash64` of the key string (``blake2b``,
    never Python's randomized ``hash()``), so every producer process sends the
    same key to the same partition — the property that makes per-key
    ordering survive multi-producer deployments.
    """
    if partitions < 1:
        raise ValueError('partitions must be at least 1')
    return stable_hash64(str(partition_key)) % partitions


def assign_partitions(
    members: Sequence[str],
    topics: Sequence[str],
) -> dict[str, list[str]]:
    """Round-robin partition topics over the sorted member ids.

    Pure and deterministic: every member computes the same assignment from
    the same membership view, so no central assignor is needed — the
    coordinator only has to version the view (the group generation).
    """
    ordered = sorted(members)
    assignment: dict[str, list[str]] = {member: [] for member in ordered}
    for index, topic in enumerate(topics):
        if ordered:
            assignment[ordered[index % len(ordered)]].append(topic)
    return assignment


class PartitionRouter:
    """Deterministic partition-topic -> broker placement for one topic.

    Args:
        topic: the logical topic name.
        partitions: number of partitions it is split into.
        brokers: the broker fleet — event-bus instances, bus URLs, or a
            mixture.  Buses created here from URLs are owned by the router
            (closed by :meth:`close`); caller-passed instances are shared.
        replicas: how many ring-successor brokers hold each partition
            topic's retention ring.  With ``replicas > 1`` (and more than
            one broker) the router mirrors every publish to the successor
            replicas via ``REPL_PUBLISH``, tracks broker health in a
            :class:`~repro.cluster.membership.ClusterMembership`, and
            fails publishes and subscriptions over to the next live owner
            when a broker dies.

    Placement hashes each partition topic onto a consistent-hash ring over
    the brokers' stable ids, so adding a broker moves ~``1/N`` of the
    partitions and every process computes the same map without talking to
    anyone.  The ring stays *static* over the full fleet even when a
    broker dies: failover walks the partition's fixed owner list to the
    first live broker, so independent processes — each with their own
    failure detector — converge on the same replica without coordination.
    """

    def __init__(
        self,
        topic: str,
        partitions: int,
        brokers: 'Sequence[EventBus | str] | EventBus | str',
        *,
        replicas: int = 1,
    ) -> None:
        if isinstance(brokers, (str, bytes)) or not isinstance(brokers, Sequence):
            brokers = [brokers]  # type: ignore[list-item]
        if not brokers:
            raise ValueError('at least one broker is required')
        if replicas < 1:
            raise ValueError('replicas must be at least 1')
        self.topic = topic
        self.partitions = partitions
        self._owned: list[EventBus] = []
        resolved: list[EventBus] = []
        for broker in brokers:
            if isinstance(broker, str):
                bus = event_bus_from_url(broker)
                self._owned.append(bus)
            else:
                bus = broker
            resolved.append(bus)
        self._by_id = {broker_id(bus): bus for bus in resolved}
        if len(self._by_id) != len(resolved):
            raise ValueError('brokers must have distinct identities')
        self.ring = HashRing(self._by_id)
        self.topics = partition_topics(topic, partitions)
        self.replicas = min(replicas, len(self._by_id))
        # Each key's fixed owners, hashed onto the static ring once.
        self._owners: dict[str, tuple[str, ...]] = {}
        #: Failure detector over the broker fleet — present only when
        #: replication is on (with one owner per partition there is no
        #: live replica to fail over to, so detection buys nothing).
        self.membership: ClusterMembership | None = (
            ClusterMembership(list(self._by_id))
            if self.replicas > 1
            else None
        )

    def __repr__(self) -> str:
        return (
            f'PartitionRouter(topic={self.topic!r}, '
            f'partitions={self.partitions}, brokers={len(self._by_id)})'
        )

    @property
    def brokers(self) -> list[EventBus]:
        """Every broker bus handle, in ring-id order."""
        return [self._by_id[node] for node in self.ring.nodes]

    # -- placement and health ------------------------------------------------ #
    def _alive(self, node: str) -> bool:
        """Whether ``node`` is considered usable by the failure detector."""
        if self.membership is None:
            return True
        return self.membership.state_of(node) != 'dead'

    def owners(self, key: str) -> tuple[str, ...]:
        """The fixed ring-owner node ids for ``key`` (primary first)."""
        owners = self._owners.get(key)
        if owners is None:
            owners = self._owners[key] = self.ring.owners(key, self.replicas)
        return owners

    def ordered_owners(self, key: str) -> Sequence[str]:
        """Owner node ids for ``key``, live brokers first.

        The order is the failover walk: the ring primary when healthy,
        otherwise the first live successor; dead owners trail the list so
        a broker that comes back is still retried last-resort when every
        replica is down.
        """
        owners = self.owners(key)
        if self.membership is None:
            return owners
        alive = [n for n in owners if self._alive(n)]
        dead = [n for n in owners if not self._alive(n)]
        return alive + dead

    def bus_of(self, node: str) -> EventBus:
        """The bus handle for ring node ``node``."""
        return self._by_id[node]

    def client_of(self, node: str) -> Any:
        """The node's broker request client (``None`` if the bus has none)."""
        return getattr(self._by_id[node], 'client', None)

    def record(
        self,
        node: str,
        *,
        ok: bool,
        unavailable: bool = False,
        error: Exception | None = None,
    ) -> None:
        """Fold one broker-operation outcome into the failure detector.

        A streak of ``unavailable`` failures
        (:data:`~repro.cluster.membership.DEFAULT_FAILURE_THRESHOLD`
        consecutive) marks the broker dead, after which
        :meth:`ordered_owners` routes around it.  A no-op when
        replication (and therefore the detector) is off.
        """
        if self.membership is not None:
            self.membership.record(
                node, ok=ok, unavailable=unavailable, error=error,
            )

    def bus_for(self, key: str) -> EventBus:
        """The live broker bus that currently hosts ``key`` (a partition topic)."""
        return self._by_id[self.ordered_owners(key)[0]]

    def designated(self, label: str) -> EventBus:
        """The live broker currently designated to coordinate ``label``."""
        return self.bus_for(f'coordinator:{label}')

    # -- replicated publish -------------------------------------------------- #
    def publish(self, partition_topic: str, payload: Any) -> int:
        """Publish one payload with failover and replication; returns its seq."""
        return self.publish_batch(partition_topic, [payload])[0]

    def publish_batch(self, partition_topic: str, payloads: Sequence[Any]) -> list[int]:
        """Publish ``payloads`` to the partition's live primary, then mirror.

        The first live ring owner assigns the sequence numbers; the events
        are then mirrored — with those explicit numbers — onto the other
        live owners via ``REPL_PUBLISH`` *before returning*.  With one
        producer per partition, a single broker death after the publish
        cannot lose an event the caller was told succeeded.  With two
        producers on one partition it can: if the second producer's mirror
        lands on the replica before the first's, and the primary then
        fails over, a consumer reading the replica starts past the first
        producer's events and counts them as ``lost``, although this call
        returned their seqs.
        """
        payloads = list(payloads)
        node, seqs = self.first_live(
            partition_topic,
            lambda node: list(
                self._by_id[node].publish_batch(partition_topic, payloads),
            ),
        )
        if seqs:
            self.mirror(
                partition_topic, node,
                'repl_publish', partition_topic, list(zip(seqs, payloads)),
            )
        return seqs

    def first_live(
        self,
        key: str,
        op: Any,
        *,
        walk_past: type[ConnectorError] = NodeUnavailableError,
    ) -> tuple[str, Any]:
        """Run ``op(node)`` on ``key``'s first reachable owner.

        The failover walk every routed request and subscription shares:
        owners are tried live-first, a
        :class:`~repro.exceptions.NodeUnavailableError` is recorded
        against the broker and moves on to the next owner, and the whole
        walk is retried under the shared jittered backoff policy — so a
        lone owner that is restarting is ridden out (≈ 1 s) before the
        error is raised.  Any other error is the request's own problem and
        propagates, unless ``walk_past`` widens what moves the walk on (a
        subscription tries the next owner whatever the refusal was).
        Returns ``(node, result)``.
        """
        last: Exception | None = None
        retries = None
        while True:
            for node in self.ordered_owners(key):
                try:
                    result = op(node)
                except walk_past as e:
                    self.record(
                        node,
                        ok=False,
                        unavailable=isinstance(e, NodeUnavailableError),
                        error=e,
                    )
                    last = e
                    continue
                self.record(node, ok=True)
                return node, result
            # Only a walk that failed builds the backoff schedule; its
            # attempt 0 is the walk just made.
            if retries is None:
                retries = DEFAULT_RECONNECT_POLICY.attempts()
                next(retries)
            if next(retries, None) is None:
                break
        raise last if last is not None else NodeUnavailableError(
            f'no broker reachable for {key!r}',
        )

    def mirror(self, key: str, primary: str, method: str, *args: Any) -> None:
        """Best-effort ``client.<method>(*args)`` on ``key``'s other live owners.

        A mirror failure is recorded against that replica but never fails
        the caller's request: the data is durable on ``primary`` — the
        fleet is merely under-replicated until the replica recovers.  With
        one owner per key (``replicas=1``) there is nobody to mirror to.
        """
        if self.replicas == 1:
            return
        for node in self.owners(key):
            if node == primary or not self._alive(node):
                continue
            call = getattr(self.client_of(node), method, None)
            if call is None:
                continue  # transport without replication support
            try:
                call(*args)
            except NodeUnavailableError as e:
                self.record(node, ok=False, unavailable=True, error=e)
            except ConnectorError as e:
                self.record(node, ok=False, error=e)
            else:
                self.record(node, ok=True)

    def config(self) -> dict[str, Any]:
        """Return a picklable dict re-creating an equivalent router."""
        return {
            'topic': self.topic,
            'partitions': self.partitions,
            'brokers': [bus.config() for bus in self.brokers],
            'replicas': self.replicas,
        }

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> 'PartitionRouter':
        """Rebuild a router from a :meth:`config` dictionary."""
        router = cls(
            config['topic'],
            config['partitions'],
            [bus_from_config(c) for c in config['brokers']],
            replicas=int(config.get('replicas', 1)),
        )
        # Buses rebuilt from configs are owned by this router.
        router._owned = router.brokers
        return router

    def close(self) -> None:
        """Close the buses this router created from URLs or configs."""
        for bus in self._owned:
            bus.close()
        self._owned = []


# --------------------------------------------------------------------------- #
# The group coordinator
# --------------------------------------------------------------------------- #
class GroupCoordinator:
    """Client handle to one group's membership and offset state.

    The state (a :class:`~repro.kvserver.broker.GroupState`) lives on the
    group's *coordinator brokers* — the ring owners of
    ``coordinator:group:{group}`` over the broker fleet — so every member
    finds the coordinator without any lookup service (the same
    coordinator-free placement partitions use).  Every command goes to the
    *acting* coordinator, the first live owner, through the broker's
    request client's ``group_command`` (``bus.client``: a SimKV
    connection, or the in-process broker itself); mutating commands are
    then mirrored to the other live owners as a lenient ``REPL_GROUP``:
    the same options plus the operation and the primary's post-op
    generation.  When the acting broker dies the owner walk lands
    on the next live replica, whose mirrored state — membership leases,
    generation, committed offsets, recorded ends — lets the group continue
    without losing a commit.  With ``replicas=1`` the same path runs with
    one owner and nobody to mirror to.
    """

    def __init__(self, group: str, router: PartitionRouter) -> None:
        if not group:
            raise ValueError('group name must be non-empty')
        self.group = group
        self._router = router
        self._owner_key = f'coordinator:group:{group}'
        for node in router.owners(self._owner_key):
            if not hasattr(router.client_of(node), 'group_command'):
                raise StreamGroupError(
                    f'bus {router.bus_of(node)!r} does not expose the '
                    'consumer-group commands',
                )
        self.designated_broker = broker_id(router.bus_for(self._owner_key))
        #: Times the acting coordinator broker changed (observed by
        #: consumers as the force-rejoin signal; 0 without replication).
        self.failovers = 0
        self._acting: str | None = None

    def __repr__(self) -> str:
        return (
            f'GroupCoordinator(group={self.group!r}, '
            f'broker={self.designated_broker!r})'
        )

    @property
    def acting_broker(self) -> str:
        """Node id of the broker serving this group's commands.

        The broker that answered the last command — the designated broker
        until a failover moves the group to a replica.
        """
        return self._acting or self.designated_broker

    def _call(self, command: str, options: dict[str, Any] | None = None) -> Any:
        """Run ``command`` with ``options`` on the acting coordinator.

        A mirrored command (see :data:`~repro.kvserver.broker.GROUP_COMMANDS`)
        is then replayed on the other live owners as ``REPL_GROUP``: the
        same options plus its operation and the primary's generation.
        """
        node, result = self._router.first_live(
            self._owner_key,
            lambda node: self._router.client_of(node).group_command(
                command, self.group, options,
            ),
        )
        if self._acting is not None and node != self._acting:
            self.failovers += 1
        self._acting = node
        op, mirrored = GROUP_COMMANDS[command]
        if mirrored:
            self._router.mirror(
                self._owner_key, node, 'repl_group', self.group,
                {'op': op, **options, 'generation': result['generation']},
            )
        return result

    def join(self, member: str, session_timeout: float | None) -> dict[str, Any]:
        """Register ``member``; returns the ``{'generation', 'members'}`` view.

        ``session_timeout`` ``None`` takes the broker's default lease.
        """
        return self._call('GROUP_JOIN', {
            'member': member, 'session_timeout': session_timeout,
        })

    def heartbeat(
        self,
        member: str,
        positions: dict[str, int],
        ends: dict[str, int] | None = None,
    ) -> dict[str, Any]:
        """Refresh the lease, report delivered positions and seen ends.

        Raises:
            GroupMembershipError: the member was expired and must rejoin.
            NodeUnavailableError: no coordinator broker is reachable
                (transient — the caller retries on the next beat).
        """
        return self._call('GROUP_HEARTBEAT', {
            'member': member, 'positions': positions, 'ends': ends or {},
        })

    def leave(self, member: str, positions: dict[str, int]) -> None:
        """Deregister ``member`` voluntarily (immediate generation bump)."""
        self._call('GROUP_LEAVE', {'member': member, 'positions': positions})

    def commit(
        self,
        member: str,
        offsets: dict[str, int],
        positions: dict[str, int],
        ends: dict[str, int] | None = None,
    ) -> None:
        """Commit per-partition offsets (monotonic), positions, and ends."""
        self._call('OFFSET_COMMIT', {
            'offsets': offsets, 'member': member, 'positions': positions,
            'ends': ends or {},
        })

    def fetch(self, topics: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Fetch ``{topic: {'committed', 'watermark', 'end', 'end_member'}}``."""
        return self._call('OFFSET_FETCH', {'topics': list(topics)})

    def stats(self) -> dict[str, Any]:
        """Return the group's full coordinator-side state."""
        return self._call('GROUP_STATS')


# --------------------------------------------------------------------------- #
# The delivery core
# --------------------------------------------------------------------------- #
class _PartitionClaim:
    """One claimed partition (a plain consumer's whole topic): its
    subscription, cursor, and un-acked keys."""

    __slots__ = (
        'topic', 'broker', 'subscription', 'read_pos', 'position',
        'acked_through', 'redeliver_below', 'unacked', 'ended', 'end_seq',
        'lost_seen',
    )

    def __init__(self, topic: str, committed: Any, watermark: int) -> None:
        self.topic = topic
        #: Ring node id of the broker the subscription reads from.
        self.broker: str | None = None
        #: The claim's cursor (``bus.subscribe``), opened by the core.
        self.subscription: Any = None
        #: Next sequence number to read from the subscription (dedup guard).
        self.read_pos = committed
        #: Next sequence number to *yield to the caller* — everything the
        #: commit/watermark machinery reports is in yielded terms, so an
        #: in-flight batch that was read but never handed to the
        #: application is redelivered after a crash, not skipped.
        self.position = committed
        #: Offset already committed for this partition.
        self.acked_through = committed
        #: Events below this position were delivered before (by a previous
        #: claimant) but never acked — delivering them again is redelivery.
        self.redeliver_below = watermark
        #: Delivered-but-unacked ``(seq, key)`` pairs since the last ack.
        self.unacked: list[tuple[int, Any]] = []
        self.ended = False
        #: Sequence number of the end-of-stream marker (once delivered).
        self.end_seq: int | None = None
        #: The cursor's lost-count already folded into the consumer's total.
        self.lost_seen = 0


class _DeliveryCore:
    """What both stream consumers share: reading claims and delivering items.

    The core decodes each claim's events, drops duplicates against
    ``read_pos``, stops a claim at its end marker, materializes each event
    as an inline object or a lazy proxy, resolves the next ``prefetch``
    proxies in the background, and hands the ready window out in
    ``events()`` under one deadline.  An item is delivered when it is
    *yielded*, not when it is read: only then does the claim's cursor move
    and (through :meth:`_deliver`) its key join the un-acked ledger.

    Each claim reads one ``bus.subscribe`` cursor, opened by :meth:`_open`
    and re-opened from its position on the next live owner when a fetch
    fails; ``lost`` sums across the hops.

    A subclass keeps ``_claims`` current in ``_sync_claims()`` (``True``
    when they changed, which restarts the deadline) and may cap one wait
    with ``_poll_slice`` (``None``: the whole remaining timeout).
    """

    _poll_slice: float | None = None

    def __init__(
        self,
        store: 'Store',
        router: PartitionRouter,
        timeout: float | None,
        prefetch: int,
    ) -> None:
        if prefetch < 0:
            raise ValueError('prefetch must be non-negative')
        self.store = store
        self.router = router
        self.topic = router.topic
        self.timeout = timeout
        self.prefetch = prefetch
        self._claims: dict[str, _PartitionClaim] = {}
        self._ready: deque[tuple[_PartitionClaim, StreamEvent, Any]] = deque()
        self._closed = threading.Event()
        self._rr = 0
        self.delivered = 0
        self._lost = 0

    # -- reading ------------------------------------------------------------ #
    def _proxy(self, key: Any) -> Any:
        """The lazy proxy a proxied event is delivered as."""
        return Proxy(StoreFactory(key, self.store.config()))

    def _prefetch(self, index: int) -> None:
        """Start resolving the ready window's ``index``-th item in the background."""
        if index < len(self._ready):
            _claim, event, item = self._ready[index]
            if not event.inline and type(item) is Proxy:
                resolve_async(item)

    def _open(self, claim: _PartitionClaim, from_seq: int | None) -> None:
        """Open the claim's cursor at ``from_seq`` on its first live owner.

        The owner walk tries owners alive-first and walks past any broker
        that refuses the subscription; a lone owner that stays down is
        backed off (≈ 1 s) before the error is raised.
        """
        claim.broker, claim.subscription = self.router.first_live(
            claim.topic,
            lambda node: self.router.bus_of(node).subscribe(
                claim.topic, from_seq=from_seq,
            ),
            walk_past=ConnectorError,
        )
        claim.lost_seen = 0

    def _poll_once(self, wait: float | None) -> None:
        """Read one pass over the open claims into the ready window.

        ``wait`` is spread over the claims; with none open (nothing
        assigned, or all drained while the group is not done) it idles.
        """
        claims = [c for c in self._claims.values() if not c.ended]
        if not claims:
            self._closed.wait(wait)
            return
        per_claim = None if wait is None else wait / len(claims)
        for offset in range(len(claims)):
            claim = claims[(self._rr + offset) % len(claims)]
            cursor = claim.subscription
            try:
                batch = cursor.next_batch(timeout=per_claim)
            except ConnectorError as e:
                # The broker under the cursor failed: count it against
                # the broker and resume from the cursor on the next live
                # owner.  Until that succeeds the old cursor stays the
                # claim's, so the next pass tries again.
                self.router.record(
                    claim.broker,  # type: ignore[arg-type]
                    ok=False,
                    unavailable=isinstance(e, NodeUnavailableError),
                    error=e,
                )
                self._harvest_lost(claim)
                self._open(claim, cursor.position)
                cursor.close()
                continue
            self._harvest_lost(claim)
            for seq, data in batch:
                if seq < claim.read_pos:
                    continue  # already read (a failover resumes at the cursor)
                event = StreamEvent.decode(data, seq=seq)
                claim.read_pos = seq + 1
                if event.end:
                    claim.ended = True
                    claim.end_seq = seq
                    break
                if event.inline:
                    assert event.payload is not None
                    item = self.store.deserializer(event.payload)
                else:
                    item = self._proxy(event.key)
                self._ready.append((claim, event, item))
                if self.prefetch and len(self._ready) <= self.prefetch + 1:
                    self._prefetch(len(self._ready) - 1)
        self._rr += 1

    def _harvest_lost(self, claim: _PartitionClaim) -> int:
        """Fold the claim's newly lost events into ``lost``; returns them."""
        delta = claim.subscription.lost - claim.lost_seen
        if delta > 0:
            self._lost += delta
            claim.lost_seen += delta
        return delta

    @property
    def lost(self) -> int:
        """Events that aged out of broker retention before delivery here."""
        for claim in list(self._claims.values()):
            if claim.subscription is not None:
                self._harvest_lost(claim)
        return self._lost

    # -- delivering --------------------------------------------------------- #
    def _deliver(self, claim: _PartitionClaim, event: StreamEvent, item: Any) -> bool:
        """Record a proxied item's key for the next ack's eviction."""
        if not event.inline:
            claim.unacked.append((event.seq, event.key))
        return True

    def _group_done(self) -> bool:
        """A consumer of one's stream is done once its claims are drained."""
        return True

    def events(self) -> 'Iterator[tuple[StreamEvent, Any]]':
        """Yield ``(event, item)`` pairs — items plus their metadata/seq.

        Raises:
            TimeoutError: when no event arrives within ``timeout`` seconds
                (a change of claims resets the clock — a handoff is progress).
        """
        timeout = self.timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._closed.is_set():
            if self._sync_claims() and timeout is not None:
                deadline = time.monotonic() + timeout
            if not self._ready:
                if self._claims and all(
                    claim.ended for claim in self._claims.values()
                ) and self._group_done():
                    return
                wait = self._poll_slice
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f'no event for {self!r} within {timeout}s',
                        )
                    wait = remaining if wait is None else min(wait, remaining)
                self._poll_once(wait)
                if not self._ready:
                    continue
            claim, event, item = self._ready.popleft()
            if self.prefetch:
                self._prefetch(self.prefetch)
            if self._claims.get(claim.topic) is not claim:
                continue  # the partition was reassigned away mid-window
            # Delivery happens *here*, not at read time: the yield cursor
            # (commits, watermarks, the un-acked ledger) covers exactly
            # what the application has seen.
            claim.position = event.seq + 1
            if self._deliver(claim, event, item):
                self.delivered += 1
                yield event, item
                if timeout is not None:
                    deadline = time.monotonic() + timeout

    def __iter__(self) -> Iterator[Any]:
        for _event, item in self.events():
            yield item

    # -- eviction and lifecycle --------------------------------------------- #
    def _evict_unacked(self) -> int:
        """Evict every key delivered since the last call in one ``evict_batch``."""
        keys = []
        for claim in self._claims.values():
            keys.extend(key for _seq, key in claim.unacked)
            claim.unacked = []
        if keys:
            self.store.evict_batch(keys)
        return len(keys)

    def __enter__(self) -> Any:
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()  # type: ignore[attr-defined]


# --------------------------------------------------------------------------- #
# The group consumer
# --------------------------------------------------------------------------- #
class GroupConsumer(_DeliveryCore):
    """A member of a consumer group over a partitioned topic.

    Joins ``group`` at construction, heartbeats in the background, and
    iterates exactly the partitions assigned to this member — yielding
    lazy proxies like :class:`~repro.stream.StreamConsumer` (the same
    delivery core, with one claim per assigned partition), but with
    **at-least-once** semantics: :meth:`ack` first evicts the delivered
    keys, then commits the per-partition offsets, so a crash at any point
    is recovered by redelivery (never by stranding keys).  When another
    member joins, leaves, or dies, the coordinator bumps the group
    generation and this consumer transparently re-syncs its partition
    claims on the next poll.

    Args:
        store: store the items' bulk data lives in.
        bus: the broker fleet — one bus/URL or a sequence of them.
        topic: the logical (partitioned) topic.
        group: consumer-group name; offsets and membership are scoped to it.
        partitions: partition count of the topic — must match the
            producer's (the coordinator-free contract, like agreeing on a
            hash ring).
        member: this member's id (generated when omitted; must be unique
            within the group).
        session_timeout: heartbeat lease seconds — miss it and the broker
            expires this member and survivors take its partitions.  The
            member heartbeats three times per lease.
        timeout: seconds without any delivered event before iteration
            raises ``TimeoutError`` (``None`` = wait forever).
        prefetch: kick off background resolution of up to this many
            delivered-but-unconsumed proxies.
        replicas: partition replication factor — must match the
            producer's.  Above 1, subscriptions fail over to replica
            brokers and the coordinator state survives the designated
            broker's death (the member rejoins on the surviving replica).

    Iteration ends when every partition assigned to this member has
    delivered its end-of-stream marker.  The marker is deliberately never
    committed past, so a partition re-claimed later replays it and the new
    claimant terminates too.
    """

    #: Seconds one poll pass spreads across the assigned subscriptions:
    #: membership syncs between polls, so no wait may outlast it.
    _poll_slice = 0.1

    def __init__(
        self,
        store: 'Store',
        bus: 'Sequence[EventBus | str] | EventBus | str',
        topic: str,
        *,
        group: str,
        partitions: int,
        member: str | None = None,
        session_timeout: float = DEFAULT_SESSION_TIMEOUT,
        timeout: float | None = 30.0,
        prefetch: int = 0,
        replicas: int = 1,
    ) -> None:
        if session_timeout <= 0:
            raise ValueError('session_timeout must be positive')
        from repro.connectors.protocol import new_object_id

        super().__init__(
            store,
            PartitionRouter(topic, partitions, bus, replicas=replicas),
            timeout,
            prefetch,
        )
        self.group = group
        self.member = member if member is not None else f'member-{new_object_id()}'
        self.session_timeout = session_timeout
        self.coordinator = GroupCoordinator(group, self.router)

        self._view_lock = threading.Lock()
        self._view: dict[str, Any] = {'generation': -1, 'members': []}
        self._needs_rejoin = False
        self._synced_generation = -1
        self._seen_failovers = 0

        self.redelivered = 0
        self.deduplicated = 0
        self.acked = 0

        self._set_view(self.coordinator.join(self.member, session_timeout))
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f'group-heartbeat-{self.member}',
            daemon=True,
        )
        self._heartbeat_thread.start()

    def __repr__(self) -> str:
        return (
            f'GroupConsumer(topic={self.topic!r}, group={self.group!r}, '
            f'member={self.member!r})'
        )

    # -- membership --------------------------------------------------------- #
    def _set_view(self, view: dict[str, Any]) -> None:
        with self._view_lock:
            if view['generation'] > self._view['generation']:
                self._view = view

    def _positions(self) -> dict[str, int]:
        """Delivered positions per claimed partition (the watermark report)."""
        # Snapshot: the heartbeat thread reads while the consumer thread
        # may be adding or dropping claims.
        return {
            topic: claim.position
            for topic, claim in list(self._claims.items())
        }

    def _ends(self) -> dict[str, int]:
        """End-marker seqs of the partitions *fully yielded* to the caller.

        A read-ahead marker with items still in the ready window is not an
        end yet: reporting it early would let the group conclude the
        partition is finished while this member still holds undelivered
        events.
        """
        return {
            topic: claim.end_seq
            for topic, claim in list(self._claims.items())
            if claim.end_seq is not None and claim.position >= claim.end_seq
        }

    def _heartbeat(self) -> bool:
        """Refresh the lease, report positions and ends, adopt the view.

        Returns ``False`` when the member was expired and must rejoin.
        """
        try:
            self._set_view(
                self.coordinator.heartbeat(
                    self.member, self._positions(), self._ends(),
                ),
            )
        except GroupMembershipError:
            self._needs_rejoin = True
            return False
        return True

    def _heartbeat_loop(self) -> None:
        interval = self.session_timeout / _HEARTBEAT_FRACTION
        while not self._closed.wait(interval):
            try:
                self._heartbeat()
            except ConnectorError:
                # The designated broker is unreachable or mid-restart: a
                # transient condition — the next beat retries, and the
                # session only ends if the broker itself expires us.
                continue

    def refresh(self) -> int:
        """Heartbeat immediately and sync the partition assignment.

        Normally membership changes propagate at the heartbeat cadence;
        this forces a round trip now — useful to make a fleet converge on
        one generation deterministically (e.g. before starting a load, or
        in tests).  Returns the generation synced to.
        """
        self._heartbeat()
        self._sync_claims()
        return self._synced_generation

    @property
    def assignment(self) -> list[str]:
        """The partition topics currently claimed by this member."""
        return sorted(self._claims)

    def _sync_claims(self) -> bool:
        """Re-derive this member's partition claims from the latest view.

        Returns whether a new generation was synced.
        """
        failovers = self.coordinator.failovers
        if failovers != self._seen_failovers:
            # The coordinator broker changed under us.  The replica's
            # mirrored state is authoritative now but its generation may
            # trail the one we synced to — rejoin and resync from scratch.
            self._seen_failovers = failovers
            self._needs_rejoin = True
        if self._needs_rejoin:
            # Our lease expired (or the coordinator failed over):
            # survivors may already own our partitions.  Drop every claim
            # (their un-acked events will be redelivered — possibly to us)
            # and start over from the committed offsets.  The view resets
            # too: a stale generation from the old coordinator must not
            # out-rank the new acting coordinator's numbering.
            self._needs_rejoin = False
            self._drop_claims(list(self._claims))
            self._synced_generation = -1
            with self._view_lock:
                self._view = {'generation': -1, 'members': []}
            self._set_view(
                self.coordinator.join(self.member, self.session_timeout),
            )
        with self._view_lock:
            view = dict(self._view)
        if view['generation'] == self._synced_generation:
            return False
        mine = assign_partitions(
            view['members'], self.router.topics,
        ).get(self.member, [])
        dropped = [t for t in self._claims if t not in mine]
        added = [t for t in mine if t not in self._claims]
        self._drop_claims(dropped)
        if added:
            offsets = self.coordinator.fetch(added)
            for topic in added:
                entry = offsets.get(topic, {})
                committed = int(entry.get('committed', 0))
                watermark = int(entry.get('watermark', 0))
                claim = _PartitionClaim(topic, committed, watermark)
                self._open(claim, committed)
                self._claims[topic] = claim
        self._synced_generation = view['generation']
        return True

    def _drop_claims(self, topics: list[str]) -> None:
        """Release partitions reassigned away from this member.

        Their delivered-but-unacked events are *not* evicted and *not*
        committed: the new claimant resumes from the committed offset and
        redelivers them — the nack-back path that keeps handoff lossless.
        Their entries left in the ready window are skipped on delivery.
        """
        for topic in topics:
            claim = self._claims.pop(topic, None)
            if claim is None:
                continue
            self._harvest_lost(claim)
            claim.subscription.close()

    def _harvest_lost(self, claim: _PartitionClaim) -> int:
        lost = super()._harvest_lost(claim)
        self._record('stream.group.lost', lost)
        return lost

    # -- delivery ----------------------------------------------------------- #
    def _record(self, operation: str, count: int = 1, nbytes: int = 0) -> None:
        metrics = self.store.metrics
        if metrics is None or count <= 0:
            return
        for _ in range(count):
            metrics.record(operation, 0.0, nbytes)

    def _deliver(self, claim: _PartitionClaim, event: StreamEvent, item: Any) -> bool:
        """Skip work a previous claimant already acked; count the rest."""
        redelivered = event.seq < claim.redeliver_below
        if redelivered and not event.inline:
            # A redelivered key that is gone was evicted by the previous
            # claimant, which died before its commit landed: the work was
            # done.  The rest resolve *eagerly*: that claimant's fenced ack
            # may still be in flight, and its evict can land between our
            # check and the application's resolve.  A failed resolve here
            # means the work was acked after all — dedup, don't crash.
            try:
                done = not self.store.exists(event.key)
                if not done:
                    resolve(item)
            except ProxyResolveError:
                done = True
            if done:
                self.deduplicated += 1
                self._record('stream.group.deduplicated')
                return False
        self._record('stream.group.delivered', 1, event.nbytes)
        if redelivered:
            self.redelivered += 1
            self._record('stream.group.redelivered')
        return super()._deliver(claim, event, item)

    def _group_done(self) -> bool:
        """Whether every partition of the topic is finished for the group.

        A partition is finished when its end marker is recorded and either
        the committed offset reached it (fully acked) or the member that
        delivered it is still alive (its ack is pending — and if it dies
        first, expiry re-opens the partition for redelivery).  Pushes our
        own ends via a heartbeat first so two members draining
        concurrently observe each other's markers.
        """
        try:
            if not self._heartbeat():
                return False
            state = self.coordinator.fetch(self.router.topics)
        except ConnectorError:
            return False
        with self._view_lock:
            members = set(self._view['members'])
        for topic in self.router.topics:
            entry = state.get(topic) or {}
            end = entry.get('end')
            if end is None:
                return False
            if int(entry.get('committed', 0)) >= int(end):
                continue
            if entry.get('end_member') not in members:
                return False
        return True

    # -- acknowledgement ---------------------------------------------------- #
    def ack(self) -> int:
        """Evict every delivered key, then commit the offsets; returns count.

        Eviction precedes the commit deliberately: a crash between the two
        leaves *committed-behind* state, which redelivery plus the
        missing-key dedup check repairs — the opposite order could commit
        past events whose keys still exist, stranding them forever.

        The ack is *fenced*: it first heartbeats and syncs to the latest
        generation, so a partition reassigned away since the last sync is
        nacked back (nothing evicted, nothing committed) rather than
        acked concurrently with its new owner — without the fence the old
        owner could evict a key the new owner is about to resolve.  The
        fence heartbeat also reports the delivered positions, so anything
        this member acks right after it is inside the new owner's
        redelivery window and hits the missing-key dedup check instead of
        a failed resolve.
        """
        self.refresh()
        counted = self._evict_unacked()
        offsets: dict[str, int] = {}
        for claim in self._claims.values():
            if claim.position > claim.acked_through or claim.ended:
                offsets[claim.topic] = claim.position
                claim.acked_through = claim.position
        if offsets:
            self.coordinator.commit(
                self.member, offsets, self._positions(), self._ends(),
            )
            self._record('stream.group.commits')
        self.acked += counted
        return counted

    # -- accounting ---------------------------------------------------------- #
    def stats(self) -> dict[str, Any]:
        """This member's delivery accounting and membership position."""
        return {
            'group': self.group,
            'member': self.member,
            'generation': self._synced_generation,
            'assignment': self.assignment,
            'delivered': self.delivered,
            'redelivered': self.redelivered,
            'deduplicated': self.deduplicated,
            'acked': self.acked,
            'lost': self.lost,
        }

    # -- lifecycle ----------------------------------------------------------- #
    def close(self, *, ack_pending: bool = False) -> None:
        """Leave the group, releasing this member's partitions to survivors.

        Delivered-but-unacked events are *nacked back*: their offsets stay
        uncommitted and their keys stay stored, so the members that claim
        these partitions redeliver them — nothing is stranded, nothing is
        silently dropped.  ``ack_pending=True`` instead acks (evicts and
        commits) everything delivered before leaving.
        """
        if self._closed.is_set():
            return
        if ack_pending:
            self.ack()
        self._closed.set()
        try:
            self.coordinator.leave(self.member, self._positions())
        except ConnectorError:  # broker already gone: expiry will handle it
            pass
        self._drop_claims(list(self._claims))
        self._heartbeat_thread.join(timeout=2.0)
        self.router.close()

    def __reduce__(self) -> Any:
        """Group consumers do not pickle: membership is a live lease.

        A pickled copy would duplicate the member id (two heartbeats, one
        lease) and silently split the un-acked bookkeeping.  Construct a
        new consumer in the target process — it joins as a fresh member
        and the group rebalances to include it.
        """
        raise StoreError(
            'a GroupConsumer cannot be pickled: group membership is a live '
            'heartbeat lease; construct a consumer with the same group= in '
            'the target process and the partitions will rebalance to it',
        )
