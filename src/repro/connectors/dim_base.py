"""Shared implementation of the distributed in-memory connectors.

The Margo, UCX and ZMQ connectors of the paper differ only in the transport
library used to reach the per-node storage servers; the connector logic —
spawn a server on first use, address objects by ``(object_id, node)``, fetch
from whichever node holds the object — is identical.  This module hosts that
shared logic; the concrete connectors below it select the transport and
capability tags.

Transport knobs (all URL-expressible, e.g.
``zmq://node-0?peers=node-0,node-1&shard_threshold=67108864&pool_size=4``):

* ``peers`` — the store's shard targets.  Objects at least
  ``shard_threshold`` bytes are striped across them in parallel and fetched
  back the same way, so one large transfer uses every node's bandwidth.
* ``shard_threshold`` — minimum object size for striping (0 disables).
* ``pool_size`` — socket connections pooled per remote node.

Cluster knobs, e.g. ``zmq://node-0?peers=node-0,node-1,node-2&replicas=2``:
the six fields of :class:`repro.cluster.ClusterOptions`, which is their one
definition.  ``replicas >= 2`` (or ``ring_vnodes > 0``) replaces the static
placement with a consistent-hash ring over ``peers`` and enables hedged
reads, read-repair, crash failover and background rebalancing.
"""
from __future__ import annotations

import dataclasses
import socket
from typing import Any
from typing import Iterable
from typing import Sequence

from repro.connectors.protocol import Connector
from repro.connectors.protocol import ConnectorCapabilities
from repro.connectors.protocol import PutData
from repro.connectors.protocol import new_object_id
from repro.cluster.attach import ClusterOptions
from repro.connectors.registry import StoreURL
from repro.dim.client import DEFAULT_SHARD_THRESHOLD
from repro.kvserver.client import DEFAULT_POOL_SIZE
from repro.kvserver.client import DEFAULT_TIMEOUT
from repro.dim.client import DIMClient
from repro.dim.node import DIMKey
from repro.exceptions import ConnectorError

__all__ = ['DIMConnectorBase']


def _default_node_id() -> str:
    """Logical node identity: hostname (one storage server per node)."""
    return socket.gethostname()


class DIMConnectorBase(Connector):
    """Base class for distributed in-memory store connectors.

    Args:
        node_id: logical node name; defaults to the local hostname so that
            all connectors in one process share the node's storage server.
        peers: shard targets for large objects — node ids or
            ``(node_id, host, port)`` entries; empty disables striping.
        shard_threshold: minimum object size (bytes) to stripe across peers.
        pool_size: connections pooled per remote node.
        timeout: per-request inactivity bound (seconds) for the KV clients.
        **cluster: the six replication-tier knobs — ``replicas``,
            ``ring_vnodes``, ``hedge_threshold``, ``failure_threshold``,
            ``rebalance``, ``rebalance_throttle`` — of
            :class:`repro.cluster.ClusterOptions`.  The defaults
            (``replicas=1``, ``ring_vnodes=0``) keep the legacy static
            topology.
    """

    connector_name = 'dim'
    transport = 'memory'
    supports_buffers = True
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
        self.node_id = node_id if node_id is not None else _default_node_id()
        self._client = DIMClient(
            self.node_id,
            self.transport,
            peers=peers,
            shard_threshold=shard_threshold,
            pool_size=pool_size,
            timeout=timeout,
            **cluster,
        )

    def __repr__(self) -> str:
        return f'{type(self).__name__}(node_id={self.node_id!r})'

    # -- primary operations --------------------------------------------- #
    def put(self, data: PutData) -> DIMKey:
        return self._client.put(data)

    def get(self, key: DIMKey) -> bytes | None:
        return self._client.get(key)

    def exists(self, key: DIMKey) -> bool:
        return self._client.exists(key)

    def evict(self, key: DIMKey) -> None:
        self._client.evict(key)

    # -- batch operations (one wire round trip per node) ------------------- #
    def put_batch(self, datas: Sequence[PutData]) -> list[DIMKey]:
        return self._client.put_batch(datas)

    def get_batch(self, keys: Iterable[DIMKey]) -> list[Any]:
        return self._client.get_batch(list(keys))

    def evict_batch(self, keys: Iterable[DIMKey]) -> None:
        self._client.evict_batch(list(keys))

    # -- deferred writes -------------------------------------------------- #
    def new_key(self) -> DIMKey:
        return self._client.key_at(new_object_id())

    def set(self, key: DIMKey, data: PutData) -> None:
        if key.node_id != self.node_id:
            raise ConnectorError(
                f'cannot fill deferred key for node {key.node_id!r} from '
                f'node {self.node_id!r}: DIM writes are node-local',
            )
        self._client.put_local(key.object_id, data)

    # -- cluster ----------------------------------------------------------- #
    def bind_metrics(self, metrics: Any) -> None:
        """Thread per-node health and cluster events into store metrics."""
        self._client.bind_metrics(metrics)

    def cluster_health(self) -> dict[str, Any]:
        """Membership, per-node health, and self-healing counters."""
        return self._client.cluster_health()

    def join_peer(self, peer: Any) -> None:
        """Add a node to the cluster; the rebalancer pulls its key share."""
        self._client.join_peer(peer)

    def leave_peer(self, node_id: str) -> None:
        """Voluntarily drain a node out of the cluster."""
        self._client.leave_peer(node_id)

    # -- configuration / lifecycle ---------------------------------------- #
    def config(self) -> dict[str, Any]:
        return {
            'node_id': self.node_id,
            'peers': [
                list(peer) if isinstance(peer, tuple) else peer
                for peer in self._client.peers
            ],
            'shard_threshold': self._client.shard_threshold,
            'pool_size': self._client.pool_size,
            'timeout': self._client.timeout,
            **self._client.cluster.config(),
        }

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
        if clear:
            self._client.local_node.close()
        self._client.close()
