"""Self-healing cluster substrate: placement, membership, replication, repair.

This package turns a fixed set of storage nodes — the DIM connectors'
per-node servers, or the clustered Redis connector's SimKV servers — into
an elastic service:

* :mod:`repro.cluster.ring` — a consistent-hash ring with virtual nodes:
  the deterministic placement function every client computes locally, so
  no coordinator is needed for clients to agree where a key's replicas
  live.
* :mod:`repro.cluster.membership` — node join/leave (voluntary) and crash
  detection (via the KV transport's typed
  :class:`~repro.exceptions.NodeUnavailableError` path), with per-node
  health threaded into store metrics.
* :mod:`repro.cluster.client` — the replication engine: N-way writes,
  hedged reads with failover and read-repair, and orphan-replica cleanup
  on partial failures.
* :mod:`repro.cluster.rebalance` — throttled background migration of the
  ring-delta keys after any membership change.
* :mod:`repro.cluster.attach` — the six knobs (:class:`ClusterOptions`) and
  the one call (:class:`ClusterAttachment`) that wires the parts above
  together for a connector.

The DIM connectors (``zmq://``, ``ucx://``, ``margo://``, all one class,
:class:`repro.connectors.dim_base.DIMConnectorBase`) and the clustered
Redis connector each hold that one attachment as ``_cluster`` and pass it
their own node resolver; see ``docs/ARCHITECTURE.md`` ("Reaching a storage
node").
"""
from repro.cluster.attach import ClusterAttachment
from repro.cluster.attach import ClusterOptions
from repro.cluster.client import ClusterClient
from repro.cluster.client import ClusterStats
from repro.cluster.client import DEFAULT_HEDGE_THRESHOLD
from repro.cluster.client import NodeBackend
from repro.cluster.membership import ClusterMembership
from repro.cluster.membership import DEFAULT_FAILURE_THRESHOLD
from repro.cluster.membership import NodeHealth
from repro.cluster.rebalance import RebalanceStats
from repro.cluster.rebalance import Rebalancer
from repro.cluster.ring import DEFAULT_VNODES
from repro.cluster.ring import HashRing
from repro.cluster.ring import placement_delta
from repro.cluster.ring import stable_hash64

__all__ = [
    'ClusterAttachment',
    'ClusterClient',
    'ClusterMembership',
    'ClusterOptions',
    'ClusterStats',
    'DEFAULT_FAILURE_THRESHOLD',
    'DEFAULT_HEDGE_THRESHOLD',
    'DEFAULT_VNODES',
    'HashRing',
    'NodeBackend',
    'NodeHealth',
    'RebalanceStats',
    'Rebalancer',
    'placement_delta',
    'stable_hash64',
]
