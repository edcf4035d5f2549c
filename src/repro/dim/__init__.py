"""Distributed in-memory (DIM) store substrate: the per-node servers.

The paper's Margo, UCX and ZMQ connectors spawn a storage server on each
node the first time a connector is created there; the set of spawned servers
forms an elastic distributed in-memory store, and keys embed the address of
the server holding the object so any client can fetch it directly
(Section 4.1.3).  This package is those servers and the keys that name
them — :class:`DIMNode`, :class:`DIMKey`, :class:`DIMShard`,
:class:`DIMReplica` and the process-wide node registry.  Routing, striping,
batching and replication over them live in one place, the connectors'
shared base :class:`repro.connectors.dim_base.DIMConnectorBase`.

Real Mochi-Margo/UCX RDMA stacks require HPC network fabrics, so this
substrate provides two transports that exercise the same architecture:

* ``'memory'`` — a process-global registry of per-node dictionaries standing
  in for RDMA-accessible remote memory (zero-copy, negligible software
  overhead).  Used by the Margo and UCX connector flavours.
* ``'tcp'`` — a real TCP server per node (the SimKV server), used by the ZMQ
  connector flavour and by any test that wants genuine sockets.
"""
from repro.dim.node import DIMKey
from repro.dim.node import DIMNode
from repro.dim.node import DIMReplica
from repro.dim.node import DIMShard
from repro.dim.node import get_local_node
from repro.dim.node import lookup_node
from repro.dim.node import reset_nodes

__all__ = [
    'DIMKey',
    'DIMNode',
    'DIMReplica',
    'DIMShard',
    'get_local_node',
    'lookup_node',
    'reset_nodes',
]
