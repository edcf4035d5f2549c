"""The distributed in-memory (DIM) connectors' one implementation.

The Margo, UCX and ZMQ connectors of the paper differ only in the transport
library used to reach the per-node storage servers (Section 4.1.3); the
connector logic — spawn a server on first use, address objects by
``(object_id, node)``, fetch from whichever node holds the object — is the
same, and :class:`DIMConnectorBase` is all of it.  A concrete connector
below it picks one of the :mod:`repro.dim` substrate's transports
(``'memory'``, the RDMA stand-in, or ``'tcp'``, a real SimKV server per
node) and its capability tags.

A connector is bound to its local node, where it puts new objects, and
fetches from any node named in a :class:`~repro.dim.DIMKey`: a memory node
is reached through the in-process registry, a TCP node through a pooled
pipelined client per address.  Three things ride on that routing:

* **Sharding** — ``peers`` names the store's shard targets.  Objects at
  least ``shard_threshold`` bytes are striped across them in contiguous
  chunks (zero-copy views of the payload's segments) written in parallel;
  the key records the ordered stripe locations, and a get fetches every
  stripe concurrently and reassembles them without a join (as a
  :class:`~repro.serialize.buffers.SerializedObject`), so one large
  transfer uses every node's bandwidth.
* **Batching** — ``put_batch``/``get_batch``/``evict_batch`` send one
  ``MSET``/``MGET``/``MDEL`` per node, in parallel across nodes.
* **Replication** — the six fields of :class:`repro.cluster.ClusterOptions`.
  ``replicas >= 2`` (or ``ring_vnodes > 0``) places plain objects on a
  consistent-hash ring over ``peers`` (every connector computes the same
  owners, with no coordinator), writes them to N replicas and reads them
  with hedging, failover and read-repair.  A crashed peer, seen as the KV
  transport's typed :class:`~repro.exceptions.NodeUnavailableError`, leaves
  the ring and a background :class:`~repro.cluster.Rebalancer`
  re-replicates exactly the ring-delta keys.  The defaults keep the static
  topology: every put is pinned to the local node.  Stripes stay pinned to
  their recorded locations; the rebalancer skips stripe ids.

Every knob is URL-expressible, e.g.
``zmq://node-0?peers=node-0,node-1,node-2&shard_threshold=67108864&pool_size=4&replicas=2``.
"""
from __future__ import annotations

import dataclasses
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any
from typing import Iterable
from typing import Iterator
from typing import Optional
from typing import Sequence

from repro.cluster.attach import ClusterAttachment
from repro.cluster.attach import ClusterOptions
from repro.connectors.protocol import Connector
from repro.connectors.protocol import ConnectorCapabilities
from repro.connectors.protocol import PutData
from repro.connectors.protocol import new_object_id
from repro.connectors.protocol import without_defaults
from repro.connectors.registry import StoreURL
from repro.dim.node import DIMKey
from repro.dim.node import DIMReplica
from repro.dim.node import DIMShard
from repro.dim.node import get_local_node
from repro.dim.node import lookup_node
from repro.exceptions import ConnectorError
from repro.exceptions import NodeUnavailableError
from repro.kvserver.client import DEFAULT_POOL_SIZE
from repro.kvserver.client import DEFAULT_TIMEOUT
from repro.kvserver.client import KVClient
from repro.serialize.buffers import SerializedObject
from repro.serialize.buffers import payload_nbytes
from repro.serialize.buffers import segments_of

__all__ = ['DIMConnectorBase']

#: Objects at least this large are striped across peer nodes (when
#: configured).  64 MiB keeps small/medium objects on one node (one round
#: trip) while multi-hundred-MB tensors engage every node's bandwidth.
DEFAULT_SHARD_THRESHOLD = 64 * 1024 * 1024

#: Upper bound on threads used for one sharded transfer.
_MAX_PARALLEL_TRANSFERS = 8


class DIMConnectorBase(Connector):
    """Puts objects on the local node and gets them from any DIM node.

    Args:
        node_id: logical node name; defaults to the local hostname so that
            all connectors in one process share the node's storage server.
        peers: the store's shard targets — node ids (spawned or looked up
            in-process, the way the local node is) or ``(node_id, host,
            port)`` entries for nodes in other processes (tcp transport
            only).  Sharding stripes across exactly this list; include the
            local node's id if it should hold a stripe.  Empty (the
            default) disables striping.  When clustered these are also the
            ring's members, and ``config()`` reports the live list after
            ``join_peer``/``leave_peer``.
        shard_threshold: minimum payload size (bytes) to stripe; ``0``
            disables striping whatever ``peers`` says.
        pool_size: connections pooled per remote node (parallel streams).
        timeout: per-request inactivity bound (seconds) for the KV clients.
        **cluster: the six replication-tier knobs — ``replicas``,
            ``ring_vnodes``, ``hedge_threshold``, ``failure_threshold``,
            ``rebalance``, ``rebalance_throttle`` — defined once, on
            :class:`repro.cluster.ClusterOptions`.  The defaults
            (``replicas=1``, ``ring_vnodes=0``) keep the static topology.
    """

    connector_name = 'dim'
    #: How this flavour reaches its nodes: ``'memory'`` or ``'tcp'``.
    transport = 'memory'
    capabilities = ConnectorCapabilities(
        storage='memory',
        intra_site=True,
        inter_site=False,
        persistence=False,
        tags=('distributed-memory',),
    )

    def __init__(
        self,
        node_id: str | None = None,
        *,
        peers: Sequence[Any] = (),
        shard_threshold: int = DEFAULT_SHARD_THRESHOLD,
        pool_size: int = DEFAULT_POOL_SIZE,
        timeout: float = DEFAULT_TIMEOUT,
        **cluster: Any,
    ) -> None:
        options = ClusterOptions(**cluster)
        self.node_id = node_id if node_id is not None else socket.gethostname()
        self._local_node = get_local_node(self.node_id, self.transport)
        self._peers = tuple(
            tuple(p) if isinstance(p, (list, tuple)) else p for p in peers
        )
        self.shard_threshold = shard_threshold
        self.pool_size = pool_size
        self.timeout = timeout
        self._tcp_clients: dict[tuple[str, int], KVClient] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        #: Cluster peers by node id: last known address, and the peer as
        #: it was given (what ``config()`` must hand to the next connector).
        self._peer_addrs: dict[str, tuple[str, int] | None] = {}
        self._peer_specs: dict[str, Any] = {}
        members: list[str] = []
        if options.replicas > 1 or options.ring_vnodes > 0:
            if not self._peers:
                raise ConnectorError(
                    'cluster placement (replicas>1 or ring_vnodes>0) '
                    'requires a non-empty peers list',
                )
            members = [self._meet_peer(peer) for peer in self._peers]
        self._cluster = ClusterAttachment(
            options,
            members,
            self._node,
            # Stripe shards (`<id>.s<i>`) are pinned to the locations
            # recorded in their parent key — the ring must not move them.
            key_filter=lambda key: '.s' not in key,
        )

    def __repr__(self) -> str:
        return f'{type(self).__name__}(node_id={self.node_id!r})'

    # -- reaching a storage node --------------------------------------------- #
    def _tcp_client(self, address: tuple[str, int]) -> KVClient:
        address = tuple(address)  # type: ignore[assignment]
        with self._lock:
            client = self._tcp_clients.get(address)
            if client is None:
                client = KVClient(
                    *address, pool_size=self.pool_size, timeout=self.timeout,
                )
                self._tcp_clients[address] = client
            return client

    def _node(self, where: Any, *, required: bool = False) -> Any:
        """Resolve a location to the handle that speaks the eight node verbs.

        The one place that decides *how* a storage node is reached: a
        memory-transport node is its in-process :class:`DIMNode`, a TCP node
        is this connector's pooled :class:`KVClient` for its address.
        ``where`` is anything carrying ``node_id``/``transport``/``address``
        — a :class:`DIMKey`, :class:`DIMShard`, :class:`DIMReplica` or the
        local :class:`DIMNode` — or a cluster peer's node id.

        Unreachable from this process (a memory node living elsewhere, a
        TCP location with no address) is ``None``, which callers turn into
        their own answer — ``exists`` is ``False``, ``evict`` does nothing —
        except where a handle is the only acceptable outcome:

        * ``required=True`` (``get``, local writes, stripe reads/writes)
          raises :class:`ConnectorError`;
        * a peer id (the cluster engine asking) raises
          :class:`NodeUnavailableError` — its failover signal — and also
          treats a *closed* memory node as unreachable: its data is gone,
          which must never read as "silently empty".
        """
        peer = isinstance(where, str)
        if peer:
            where = DIMReplica(
                where, self.transport, self._peer_addrs.get(where),
            )
        in_memory = where.transport == 'memory'
        local = None
        if in_memory or (peer and where.address is None):
            # In-process.  (A TCP peer with no recorded address may be a
            # node of this process, recreated on a fresh port since.)
            local = lookup_node(where.node_id, where.transport)
            if peer and local is not None and local.closed:
                local = None
        if in_memory:
            node = local
        else:
            address = where.address or (local and local.address)
            node = self._tcp_client(address) if address else None
        if node is None and peer:
            raise NodeUnavailableError(
                f'DIM node {where.node_id!r} is not available in this process',
            )
        if node is None and required:
            raise ConnectorError(
                f'DIM node {where.node_id!r} is not reachable from this '
                f'process (memory-transport nodes are process-local, TCP '
                f'locations need an address): {where!r}',
            )
        return node

    def _resolve_peer(self, peer: Any) -> DIMReplica:
        if isinstance(peer, str):
            node = get_local_node(peer, self.transport)
            return DIMReplica(peer, self.transport, node.address)
        if isinstance(peer, tuple) and len(peer) == 3:
            node_id, host, port = peer
            if self.transport != 'tcp':
                raise ConnectorError(
                    f'addressed peer {peer!r} requires the tcp transport',
                )
            return DIMReplica(str(node_id), 'tcp', (str(host), int(port)))
        raise ConnectorError(
            f'malformed DIM peer {peer!r}: expected a node id or '
            '(node_id, host, port)',
        )

    def _meet_peer(self, peer: Any) -> str:
        """Resolve a cluster peer and remember where it is; returns its id."""
        target = self._resolve_peer(peer)
        self._peer_addrs[target.node_id] = target.address
        self._peer_specs[target.node_id] = peer
        return target.node_id

    # -- cluster placement --------------------------------------------------- #
    @property
    def _targets(self) -> tuple[Any, ...]:
        """Shard targets as given; when clustered, the live member list."""
        if not self._cluster.attached:
            return self._peers
        return tuple(self._peer_specs[n] for n in self._cluster.members)

    def bind_metrics(self, metrics: Any) -> None:
        """Thread per-node health and cluster events into store metrics."""
        self._cluster.bind_metrics(metrics)

    def cluster_health(self) -> dict[str, Any]:
        """Membership, per-node health, and self-healing counters."""
        health = self._cluster.health()
        health.setdefault('ring', [self.node_id])
        return health

    def join_peer(self, peer: Any) -> None:
        """Add ``peer`` to the cluster; the rebalancer pulls its key share.

        Accepts the same forms as ``peers``: a node id (spawned/looked up
        in-process) or ``(node_id, host, port)``.  Rejoining a crashed node
        id spawns a fresh, empty node.
        """
        self._cluster.require('join_peer')
        self._cluster.join(self._meet_peer(peer))

    def leave_peer(self, node_id: str) -> None:
        """Voluntarily remove ``node_id``; its keys drain to the new owners.

        The node stays reachable while the background rebalancer copies its
        share to the remaining members.
        """
        self._cluster.leave(node_id)

    def _key_at(self, object_id: str, owners: Sequence[str] = ()) -> DIMKey:
        """The key of a plain object: on ``owners``, or pinned to this node."""
        if not owners:
            return DIMKey(
                object_id, self.node_id, self.transport, self._local_node.address,
            )
        replicas = tuple(
            DIMReplica(node_id, self.transport, self._peer_addrs.get(node_id))
            for node_id in owners
        )
        return DIMKey(
            object_id, owners[0], self.transport, replicas[0].address,
            replicas=replicas,
        )

    def _replica_ids(self, key: DIMKey) -> tuple[str, ...]:
        """A key's recorded replica nodes, learning addresses we have not met."""
        assert key.replicas is not None
        for replica in key.replicas:
            if replica.address is not None:
                self._peer_addrs.setdefault(
                    replica.node_id, tuple(replica.address),
                )
        return tuple(replica.node_id for replica in key.replicas)

    def _each_replica(self, key: DIMKey, op: Any) -> Iterator[Any]:
        """Plain consumer (no cluster config): ``op(node)`` down the recorded list.

        Straight failover: replicas this process cannot reach, or that are
        down, are skipped.
        """
        assert key.replicas is not None
        for replica in key.replicas:
            node = self._node(replica)
            if node is None:
                continue
            try:
                yield op(node)
            except NodeUnavailableError:
                continue

    def _get_replicated(self, key: DIMKey) -> Any | None:
        engine = self._cluster.client
        if engine is not None:
            return engine.get(key.object_id, self._replica_ids(key))
        found = self._each_replica(key, lambda node: node.get(key.object_id))
        return next((value for value in found if value is not None), None)

    def _exists_replicated(self, key: DIMKey) -> bool:
        engine = self._cluster.client
        if engine is not None:
            return engine.exists(key.object_id, self._replica_ids(key))
        return any(
            self._each_replica(key, lambda node: node.exists(key.object_id)),
        )

    def _evict_replicated(self, keys: Sequence[DIMKey]) -> None:
        engine = self._cluster.client
        if engine is not None:
            candidates = {key.object_id: self._replica_ids(key) for key in keys}
            engine.mdel(list(candidates), candidates)
            return
        for key in keys:
            for _ in self._each_replica(
                key, lambda node, k=key: node.delete(k.object_id),
            ):
                pass

    def _parallel(self, tasks: 'list[Any]') -> list[Any]:
        """Run thunks concurrently (parallel streams for multi-node I/O).

        The executor is created lazily and kept for the connector's
        lifetime — sharded transfers and multi-node batches must not pay
        thread spawn/join per operation.
        """
        if len(tasks) == 1:
            return [tasks[0]()]
        with self._lock:
            pool = self._executor
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=_MAX_PARALLEL_TRANSFERS,
                    thread_name_prefix='dim-transfer',
                )
                self._executor = pool
        # Every task is awaited even after a failure (so a caller knows all
        # side effects have landed before it cleans up); the first error is
        # then re-raised.
        futures = [pool.submit(task) for task in tasks]
        results: list[Any] = []
        first_error: BaseException | None = None
        for future in futures:
            try:
                results.append(future.result())
            # repro: ignore[RP004] - every future is awaited before the
            # first error is re-raised after the loop
            except BaseException as e:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = e
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    # -- sharding ------------------------------------------------------------ #
    @staticmethod
    def _split_segments(segments: list[memoryview], count: int) -> list[list[memoryview]]:
        """Split flat byte segments into ``count`` contiguous chunk views.

        Pure slicing — no bytes are copied; each chunk is a list of views
        into the caller's payload memory.
        """
        total = sum(len(s) for s in segments)
        base, extra = divmod(total, count)
        chunks: list[list[memoryview]] = []
        queue = list(segments)
        for i in range(count):
            want = base + (1 if i < extra else 0)
            chunk: list[memoryview] = []
            while want > 0:
                head = queue[0]
                if len(head) <= want:
                    chunk.append(head)
                    want -= len(head)
                    queue.pop(0)
                else:
                    chunk.append(head[:want])
                    queue[0] = head[want:]
                    want = 0
            chunks.append(chunk)
        return chunks

    def _put_sharded(self, object_id: str, data: Any) -> DIMKey:
        targets = [self._resolve_peer(peer) for peer in self._targets]
        chunks = self._split_segments(segments_of(data), len(targets))
        shards = tuple(
            DIMShard(
                object_id=f'{object_id}.s{i}',
                node_id=target.node_id,
                transport=self.transport,
                address=target.address,
                nbytes=sum(len(piece) for piece in chunk),
            )
            for i, (target, chunk) in enumerate(zip(targets, chunks))
        )
        try:
            self._parallel(
                [
                    (lambda s=shard, c=chunk: self._node(s, required=True).set(
                        s.object_id, SerializedObject(c),
                    ))
                    for shard, chunk in zip(shards, chunks)
                ],
            )
        except Exception:
            # The key never reaches the caller, so stripes already written
            # to healthy nodes would leak forever — best-effort clean-up.
            self._evict_located(shards, best_effort=True)
            raise
        return self._key_at(object_id)._replace(shards=shards)

    def _fetch(self, where: 'DIMKey | DIMShard') -> Any | None:
        """Read one plain object or stripe from the node recorded in ``where``."""
        return self._node(where, required=True).get(where.object_id)

    @staticmethod
    def _assemble_shards(parts: Sequence[Any]) -> Optional[SerializedObject]:
        """Reassemble fetched stripes as segment views (``None`` if any miss)."""
        if any(part is None for part in parts):
            return None
        pieces: list[Any] = []
        for part in parts:
            if isinstance(part, SerializedObject):
                pieces.extend(part.pieces)
            else:
                pieces.append(part)
        return SerializedObject(pieces)

    def _shardable(self, data: Any) -> bool:
        return (
            self.shard_threshold > 0
            and payload_nbytes(data) >= self.shard_threshold
            and bool(self._targets)
        )

    # -- primary operations -------------------------------------------------- #
    def put(self, data: PutData) -> DIMKey:
        """Store ``data``: striped if large, else on the ring or the local node."""
        object_id = new_object_id()
        if self._shardable(data):
            return self._put_sharded(object_id, data)
        engine = self._cluster.client
        if engine is not None:
            return self._key_at(object_id, engine.set(object_id, data))
        self._node(self._local_node, required=True).set(object_id, data)
        return self._key_at(object_id)

    def get(self, key: DIMKey) -> Any | None:
        """Fetch ``key`` from wherever it says the object lives (``None`` if gone)."""
        if key.shards:
            return self._assemble_shards(
                self._parallel(
                    [(lambda s=shard: self._fetch(s)) for shard in key.shards],
                ),
            )
        if key.replicas:
            return self._get_replicated(key)
        return self._fetch(key)

    def _exists_at(self, where: 'DIMKey | DIMShard') -> bool:
        node = self._node(where)
        return node is not None and node.exists(where.object_id)

    def exists(self, key: DIMKey) -> bool:
        """Whether ``key``'s object (every stripe of it) is still stored."""
        if key.shards:
            return all(self._exists_at(shard) for shard in key.shards)
        if key.replicas:
            return self._exists_replicated(key)
        return self._exists_at(key)

    def evict(self, key: DIMKey) -> None:
        """Remove ``key``'s object from every node holding a piece of it."""
        self.evict_batch([key])

    def _evict_located(
        self,
        located: 'Iterable[DIMKey | DIMShard]',
        *,
        best_effort: bool = False,
    ) -> None:
        """Evict plain keys and stripes: one ``mdel`` per node handle.

        Locations this process cannot reach are skipped.  An unreachable
        node does not stop the clean-up of the remaining nodes; its error
        is raised afterwards unless ``best_effort`` (used when undoing a
        failed sharded put).
        """
        by_node: dict[Any, list[str]] = {}
        for where in located:
            node = self._node(where)
            if node is not None:
                by_node.setdefault(node, []).append(where.object_id)
        first_error: ConnectorError | None = None
        for node, object_ids in by_node.items():
            try:
                node.mdel(object_ids)
            except ConnectorError as e:
                # Keep deleting on the remaining (healthy) nodes either
                # way; an unreachable node must not leak their stripes.
                if first_error is None:
                    first_error = e
        if first_error is not None and not best_effort:
            raise first_error

    # -- batch operations (one wire round trip per node) --------------------- #
    def put_batch(self, datas: Sequence[PutData]) -> list[DIMKey]:
        """Store several payloads; the unsharded ones share one ``mset`` per node."""
        keys: list[DIMKey | None] = [None] * len(datas)
        plain: list[tuple[int, str, Any]] = []
        for i, data in enumerate(datas):
            if self._shardable(data):
                keys[i] = self._put_sharded(new_object_id(), data)
            else:
                plain.append((i, new_object_id(), data))
        items = [(object_id, data) for _, object_id, data in plain]
        engine = self._cluster.client
        placements: dict[str, Any] = {}
        if items and engine is not None:
            placements = engine.mset(items)
        elif items:
            self._node(self._local_node, required=True).mset(items)
        for i, object_id, _ in plain:
            keys[i] = self._key_at(object_id, placements.get(object_id, ()))
        return keys  # type: ignore[return-value]

    def get_batch(self, keys: Iterable[DIMKey]) -> list[Any]:
        """Fetch several keys: one ``mget`` per node, in parallel across nodes.

        Sharded keys contribute their individual stripe fetches to the same
        parallel round as the per-node reads (flat — no nested fan-out), so
        a batch of large striped objects overlaps their transfers instead of
        draining one object at a time.
        """
        keys = list(keys)
        results: list[Any] = [None] * len(keys)
        by_node: dict[Any, list[tuple[int, str]]] = {}
        shard_parts: dict[int, list[Any]] = {}
        thunks: list[Any] = []
        for i, key in enumerate(keys):
            if key.shards:
                shard_parts[i] = [None] * len(key.shards)
                # One thunk per stripe keeps stripes of one object parallel:
                for j, shard in enumerate(key.shards):
                    thunks.append(
                        lambda i=i, j=j, s=shard: shard_parts[i].__setitem__(
                            j, self._fetch(s),
                        ),
                    )
            elif key.replicas:
                # Replicated keys join the same parallel round; each gets
                # the full hedged/failover read path.
                thunks.append(
                    lambda i=i, k=key: results.__setitem__(
                        i, self._get_replicated(k),
                    ),
                )
            else:
                by_node.setdefault(self._node(key, required=True), []).append(
                    (i, key.object_id),
                )

        def fetch(node: Any, wanted: list[tuple[int, str]]) -> None:
            values = node.mget([object_id for _, object_id in wanted])
            for (i, _), value in zip(wanted, values):
                results[i] = value

        thunks.extend(
            (lambda n=node, w=wanted: fetch(n, w))
            for node, wanted in by_node.items()
        )
        if thunks:
            self._parallel(thunks)
        for i, parts in shard_parts.items():
            results[i] = self._assemble_shards(parts)
        return results

    def evict_batch(self, keys: Iterable[DIMKey]) -> None:
        """Evict several keys: one ``mdel`` per node."""
        located: 'list[DIMKey | DIMShard]' = []
        replicated: list[DIMKey] = []
        for key in keys:
            if key.shards:
                located.extend(key.shards)
            elif key.replicas:
                replicated.append(key)
            else:
                located.append(key)
        if replicated:
            self._evict_replicated(replicated)
        self._evict_located(located)

    # -- deferred writes ----------------------------------------------------- #
    def new_key(self) -> DIMKey:
        """A key on the local node for :meth:`set` to fill later."""
        return self._key_at(new_object_id())

    def set(self, key: DIMKey, data: PutData) -> None:
        """Fill a key from :meth:`new_key` of this node (DIM writes are node-local)."""
        if key.node_id != self.node_id:
            raise ConnectorError(
                f'cannot fill deferred key for node {key.node_id!r} from '
                f'node {self.node_id!r}: DIM writes are node-local',
            )
        self._node(self._local_node, required=True).set(key.object_id, data)

    # -- configuration / lifecycle ------------------------------------------- #
    def config(self) -> dict[str, Any]:
        """The non-default constructor arguments, with the live peer list
        and the cluster options."""
        return without_defaults(self, {
            'node_id': self.node_id,
            'peers': [
                list(peer) if isinstance(peer, tuple) else peer
                for peer in self._targets
            ],
            'shard_threshold': self.shard_threshold,
            'pool_size': self.pool_size,
            'timeout': self.timeout,
            **self._cluster.config(),
        })

    @classmethod
    def from_url(cls, url: StoreURL | str) -> 'DIMConnectorBase':
        """Build from ``<scheme>://[node_id][/name][?peers=a,b&...]``.

        Recognized query parameters: ``peers`` (comma-separated node ids),
        ``shard_threshold`` (bytes), ``pool_size``, ``timeout`` (seconds),
        ``replicas``, ``ring_vnodes``, ``hedge_threshold`` (seconds),
        ``failure_threshold``, ``rebalance`` (bool), and
        ``rebalance_throttle`` (bytes/second).
        """
        url = StoreURL.parse(url)
        shard_threshold = url.pop_int('shard_threshold', DEFAULT_SHARD_THRESHOLD)
        pool_size = url.pop_int('pool_size', DEFAULT_POOL_SIZE)
        timeout = url.pop_float('timeout', DEFAULT_TIMEOUT)
        assert shard_threshold is not None and pool_size is not None
        assert timeout is not None
        return cls(
            node_id=url.netloc or None,
            peers=url.pop_tags('peers'),
            shard_threshold=shard_threshold,
            pool_size=pool_size,
            timeout=timeout,
            **dataclasses.asdict(ClusterOptions.from_url(url)),
        )

    def close(self, clear: bool = False) -> None:
        """Leave the cluster tier and close this connector's sockets and threads.

        Args:
            clear: also close the local node, dropping what it stores.
        """
        if clear:
            self._local_node.close()
        self._cluster.close()
        with self._lock:
            for client in self._tcp_clients.values():
                client.close()
            self._tcp_clients.clear()
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)
