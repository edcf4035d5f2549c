"""Redis-style connector backed by the SimKV server.

The paper's ``RedisConnector`` is a ~30 line interface to an existing Redis
or KeyDB server, giving hybrid in-memory/on-disk storage with low latency and
easy configuration.  Real Redis is unavailable offline, so this connector
talks to the SimKV TCP key-value server (:mod:`repro.kvserver`) instead —
same architecture (central server, one socket round-trip per operation),
different wire protocol.

A connector can either attach to an already running server (``host``/``port``)
or start an in-process server on demand (``launch=True``), which is the
convenient mode for tests and examples.

With ``nodes=['h1:p1', 'h2:p2', ...]`` (URL:
``redis://?nodes=h1:p1,h2:p2&replicas=2``) the connector becomes a
*clustered* client over several SimKV servers: keys are placed by the same
consistent-hash ring the DIM connectors use (:mod:`repro.cluster`), written
to ``replicas`` servers, and read with hedging, failover and read-repair.
Because placement is deterministic, every process pointed at the same
``nodes`` list computes identical owners — keys stay plain
:class:`ConnectorKey` tuples with no embedded location.
"""
from __future__ import annotations

import dataclasses
from typing import Any
from typing import Iterable
from typing import Sequence

from repro.cluster.attach import ClusterAttachment
from repro.cluster.attach import ClusterOptions
from repro.cluster.ring import DEFAULT_VNODES
from repro.connectors.protocol import Connector
from repro.connectors.protocol import ConnectorCapabilities
from repro.connectors.protocol import ConnectorKey
from repro.connectors.protocol import PutData
from repro.connectors.protocol import new_object_id
from repro.connectors.protocol import without_defaults
from repro.connectors.registry import StoreURL
from repro.exceptions import ConnectorError
from repro.kvserver.client import DEFAULT_POOL_SIZE
from repro.kvserver.client import DEFAULT_TIMEOUT
from repro.kvserver.client import KVClient
from repro.kvserver.server import launch_server

__all__ = ['RedisConnector']


def _parse_node(node: Any) -> tuple[str, int]:
    """Normalize a cluster node spec (``'host:port'`` or tuple) to an address."""
    if isinstance(node, str):
        host, sep, port = node.rpartition(':')
        if not sep or not port.isdigit():
            raise ConnectorError(
                f'malformed cluster node {node!r}: expected host:port',
            )
        return (host, int(port))
    if isinstance(node, (tuple, list)) and len(node) == 2:
        return (str(node[0]), int(node[1]))
    raise ConnectorError(
        f'malformed cluster node {node!r}: expected host:port or (host, port)',
    )


class RedisConnector(Connector):
    """Connector storing objects on a central SimKV (Redis stand-in) server.

    Args:
        host: server host name.
        port: server port.  With ``launch=True`` and ``port=0`` a fresh
            in-process server is started and its ephemeral port recorded so
            that ``config()`` round-trips point at the same server.
        launch: start an in-process server if one is not already reachable.
        pool_size: connections the pipelined KV client pools; requests from
            concurrent store users round-robin across them, so a bulk
            transfer does not head-of-line block small operations.
        timeout: per-request inactivity bound (seconds) — a request fails
            only after its connection receives nothing for this long.
        nodes: cluster mode — ``'host:port'`` strings (or ``(host, port)``
            tuples) of several SimKV servers.  Non-empty ``nodes`` replaces
            the single central server with consistent-hash placement across
            them; ``host``/``port``/``launch`` are then ignored.
        launch_nodes: start this many in-process SimKV servers and use them
            as the cluster (convenience for tests; mutually exclusive with
            ``nodes``).
        **cluster: cluster mode's six replication-tier knobs — ``replicas``,
            ``ring_vnodes``, ``hedge_threshold``, ``failure_threshold``,
            ``rebalance``, ``rebalance_throttle`` — defined once, on
            :class:`repro.cluster.ClusterOptions`.  Cluster mode defaults to
            ``replicas=2`` and ``ring_vnodes=DEFAULT_VNODES``.
    """

    connector_name = 'redis'
    scheme = 'redis'
    capabilities = ConnectorCapabilities(
        storage='hybrid',
        intra_site=True,
        inter_site=False,
        persistence=True,
        tags=('redis', 'central-server'),
    )

    def __init__(
        self,
        host: str = '127.0.0.1',
        port: int = 0,
        *,
        launch: bool = False,
        pool_size: int = DEFAULT_POOL_SIZE,
        timeout: float = DEFAULT_TIMEOUT,
        nodes: Sequence[Any] = (),
        launch_nodes: int = 0,
        **cluster: Any,
    ) -> None:
        if nodes and launch_nodes:
            raise ConnectorError('pass either nodes or launch_nodes, not both')
        if launch_nodes:
            launched = [launch_server('127.0.0.1', 0) for _ in range(launch_nodes)]
            nodes = [(s.host, s.port) for s in launched]
        self.pool_size = pool_size
        self.timeout = timeout
        options = ClusterOptions(
            **{'replicas': 2, 'ring_vnodes': DEFAULT_VNODES, **cluster},
        )
        #: Every KV client this connector opened, by ``host:port`` node id.
        self._clients: dict[str, KVClient] = {}
        members = [self._open_node(node) for node in nodes]
        if members:
            # The primary host/port fields point at the first node so that
            # repr/config stay meaningful; the cluster does the routing.
            host, port = _parse_node(members[0])
        elif launch:
            server = launch_server(host, port)
            assert server.port is not None
            host, port = server.host, server.port
        self.host = host
        self.port = port
        self._cluster = ClusterAttachment(
            options, members, self._clients.__getitem__,
        )
        # Bound once: the replication engine over the member servers, or
        # the one server's own client.  Both speak the eight node verbs, so
        # no data method below asks which it is — and the single-server
        # path stays ``put -> KVClient.set`` with no engine in between.
        self._kv: Any = (
            self._cluster.client
            or self._clients[self._open_node((host, port))]
        )

    def _open_node(self, node: Any) -> str:
        """Open (lazily connecting) the KV client of a node; returns its id."""
        host, port = _parse_node(node)
        node_id = f'{host}:{port}'
        if node_id not in self._clients:
            self._clients[node_id] = KVClient(
                host, port, pool_size=self.pool_size, timeout=self.timeout,
            )
        return node_id

    @property
    def nodes(self) -> tuple[str, ...]:
        """Cluster mode's live member list (empty for a single server)."""
        return self._cluster.members

    def __repr__(self) -> str:
        if self._cluster.attached:
            return f'RedisConnector(nodes={list(self.nodes)!r})'
        return f'RedisConnector(host={self.host!r}, port={self.port})'

    # -- primary operations --------------------------------------------- #
    def put(self, data: PutData) -> ConnectorKey:
        key = ConnectorKey(object_id=new_object_id(), connector=self.connector_name)
        # The KV client scatter/gathers the payload's segments straight out
        # of the caller's buffers (pickle-5 out-of-band) — no local copy.
        self._kv.set(key.object_id, data)
        return key

    def get(self, key: ConnectorKey) -> 'bytes | bytearray | memoryview | None':
        return self._kv.get(key.object_id)

    def exists(self, key: ConnectorKey) -> bool:
        return self._kv.exists(key.object_id)

    def evict(self, key: ConnectorKey) -> None:
        self._kv.delete(key.object_id)

    # -- batch operations (one MSET/MGET round trip per batch) ------------- #
    def put_batch(self, datas: Sequence[PutData]) -> list[ConnectorKey]:
        keys = [
            ConnectorKey(object_id=new_object_id(), connector=self.connector_name)
            for _ in datas
        ]
        self._kv.mset([(key.object_id, data) for key, data in zip(keys, datas)])
        return keys

    def get_batch(self, keys: Iterable[ConnectorKey]) -> list[Any]:
        return self._kv.mget([key.object_id for key in keys])

    def evict_batch(self, keys: Iterable[ConnectorKey]) -> None:
        self._kv.mdel([key.object_id for key in keys])

    # -- deferred writes -------------------------------------------------- #
    def new_key(self) -> ConnectorKey:
        return ConnectorKey(object_id=new_object_id(), connector=self.connector_name)

    def set(self, key: ConnectorKey, data: PutData) -> None:
        self._kv.set(key.object_id, data)

    # -- cluster ----------------------------------------------------------- #
    def bind_metrics(self, metrics: Any) -> None:
        """Thread per-node health and cluster events into store metrics."""
        self._cluster.bind_metrics(metrics)

    def cluster_health(self) -> dict[str, Any]:
        """Membership, per-node health, and self-healing counters."""
        return self._cluster.health()

    def join_node(self, node: Any) -> None:
        """Add a ``host:port`` SimKV server to the cluster."""
        self._cluster.require('join_node')
        self._cluster.join(self._open_node(node))

    def leave_node(self, node: Any) -> None:
        """Voluntarily drain a ``host:port`` server out of the cluster."""
        host, port = _parse_node(node)
        self._cluster.leave(f'{host}:{port}')

    # -- configuration / lifecycle --------------------------------------- #
    def config(self) -> dict[str, Any]:
        config: dict[str, Any] = {
            'host': self.host,
            'port': self.port,
            'pool_size': self.pool_size,
            'timeout': self.timeout,
        }
        if self._cluster.attached:
            # The live member list: a store rebuilt from this config places
            # keys on the ring this connector uses now, not at start-up.
            config.update(nodes=list(self.nodes), **self._cluster.config())
        return without_defaults(self, config)

    @classmethod
    def from_url(cls, url: StoreURL | str) -> 'RedisConnector':
        """Build from ``redis://host:port[/name][?launch=1&pool_size=4&timeout=30]``.

        Cluster mode adds ``nodes=h1:p1,h2:p2`` (or ``launch_nodes=N``),
        ``replicas``, ``ring_vnodes``, ``hedge_threshold``,
        ``failure_threshold``, ``rebalance``, and ``rebalance_throttle``.
        The path (if any) is left for ``Store.from_url`` to use as the store
        name, mirroring Redis database-namespace URLs.
        """
        url = StoreURL.parse(url)
        pool_size = url.pop_int('pool_size', DEFAULT_POOL_SIZE)
        timeout = url.pop_float('timeout', DEFAULT_TIMEOUT)
        launch_nodes = url.pop_int('launch_nodes', 0)
        assert pool_size is not None and timeout is not None
        assert launch_nodes is not None
        options = ClusterOptions.from_url(
            url, replicas=2, ring_vnodes=DEFAULT_VNODES,
        )
        return cls(
            host=url.host or '127.0.0.1',
            port=url.port or 0,
            launch=url.pop_bool('launch', False),
            pool_size=pool_size,
            timeout=timeout,
            nodes=url.pop_tags('nodes'),
            launch_nodes=launch_nodes,
            **dataclasses.asdict(options),
        )

    def close(self, clear: bool = False) -> None:
        self._cluster.close()
        # One FLUSH per reachable server: a node the membership marks dead
        # is not dialled (detached single-server mode: the one client).
        membership = self._cluster.membership
        live = self._clients if membership is None else membership.alive()
        for node_id, client in self._clients.items():
            if clear and node_id in live:
                try:
                    client.flush()
                # repro: ignore[RP004] - best-effort flush during teardown;
                # the server may already be gone
                except Exception:  # noqa: BLE001 - server may already be gone
                    pass
            client.close()
