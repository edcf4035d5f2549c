"""Per-node storage servers of the distributed in-memory store."""
from __future__ import annotations

import threading
from typing import Any
from typing import Iterable
from typing import NamedTuple
from typing import Sequence

from repro.kvserver.server import KVServer
from repro.serialize.buffers import freeze_payload

__all__ = [
    'DIMKey',
    'DIMNode',
    'DIMReplica',
    'DIMShard',
    'get_local_node',
    'reset_nodes',
    'lookup_node',
]


class DIMReplica(NamedTuple):
    """One replica location of a cluster-placed object.

    Attributes:
        node_id: logical node name holding this copy.
        transport: ``'memory'`` or ``'tcp'``.
        address: ``(host, port)`` for TCP nodes, ``None`` for memory nodes.
    """

    node_id: str
    transport: str
    address: tuple[str, int] | None


class DIMShard(NamedTuple):
    """One stripe of a sharded object and the node server holding it.

    Attributes:
        object_id: shard-unique object identifier.
        node_id: logical node name the shard lives on.
        transport: ``'memory'`` or ``'tcp'``.
        address: ``(host, port)`` for TCP nodes, ``None`` for memory nodes.
        nbytes: payload size of this shard.
    """

    object_id: str
    node_id: str
    transport: str
    address: tuple[str, int] | None
    nbytes: int


class DIMKey(NamedTuple):
    """Key identifying an object and the node server holding it.

    Attributes:
        object_id: unique object identifier.
        node_id: logical node name the object lives on.
        transport: ``'memory'`` or ``'tcp'``.
        address: ``(host, port)`` for TCP nodes, ``None`` for memory nodes.
        shards: for large objects striped across nodes, the ordered shard
            locations whose concatenation is the object (``None`` for plain
            single-node objects).
        replicas: for cluster-placed objects, the replica locations the
            object was written to, primary first (``None`` for legacy
            single-copy objects).  Readers treat these as *hints*: after a
            crash the live copies may have migrated, so the consistent-hash
            ring's current owners are also consulted.
    """

    object_id: str
    node_id: str
    transport: str
    address: tuple[str, int] | None
    shards: tuple[DIMShard, ...] | None = None
    replicas: tuple[DIMReplica, ...] | None = None


class DIMNode:
    """A single node's storage server.

    ``memory`` nodes store objects in a dictionary owned by this process
    and speak the eight node verbs (``set/get/exists/delete/mset/mget/
    mdel/keys`` — :class:`repro.cluster.NodeBackend`) over it directly, the
    stand-in for RDMA access to a remote node's memory.  ``tcp`` nodes run a
    real socket server instead: their objects live in that server, and the
    handle speaking the verbs is a :class:`~repro.kvserver.client.KVClient`
    at :attr:`address` (see the DIM connector's resolver,
    ``DIMConnectorBase._node``).
    """

    def __init__(self, node_id: str, transport: str = 'memory') -> None:
        if transport not in ('memory', 'tcp'):
            raise ValueError(f'unknown DIM transport {transport!r}')
        self.node_id = node_id
        self.transport = transport
        #: True once :meth:`close` ran — cluster callers treat a closed
        #: node as crashed (its data is gone), never silently empty.
        self.closed = False
        self._data: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._server: KVServer | None = None
        if transport == 'tcp':
            self._server = KVServer()
            self._server.start()

    @property
    def address(self) -> tuple[str, int] | None:
        """``(host, port)`` of a tcp node's server; ``None`` for memory nodes."""
        if self._server is None:
            return None
        assert self._server.port is not None
        return (self._server.host, self._server.port)

    # -- the eight node verbs, over this process's memory ------------------ #
    def set(self, key: str, value: Any) -> None:
        """Store ``value`` (frozen, so later caller mutations cannot leak in)."""
        frozen = freeze_payload(value)
        with self._lock:
            self._data[key] = frozen

    def mset(self, items: Sequence[tuple[str, Any]]) -> None:
        """Store several pairs under one lock acquisition."""
        frozen = [(key, freeze_payload(value)) for key, value in items]
        with self._lock:
            self._data.update(frozen)

    def get(self, key: str) -> Any | None:
        """The stored value, ``None`` when missing."""
        with self._lock:
            return self._data.get(key)

    def mget(self, keys: Iterable[str]) -> list[Any]:
        """The stored values in order (``None`` per missing key)."""
        with self._lock:
            return [self._data.get(key) for key in keys]

    def exists(self, key: str) -> bool:
        """Whether ``key`` is stored here."""
        with self._lock:
            return key in self._data

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed."""
        return bool(self.mdel((key,)))

    def mdel(self, keys: Iterable[str]) -> int:
        """Remove several keys; returns how many existed."""
        with self._lock:
            return sum(self._data.pop(key, None) is not None for key in keys)

    def keys(self) -> list[str]:
        """Every object id stored here (cluster rebalancer enumeration)."""
        with self._lock:
            return list(self._data)

    def close(self) -> None:
        """Stop the server (tcp) and drop every object; marks the node closed."""
        self.closed = True
        if self._server is not None:
            self._server.stop()
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        if self._server is not None:
            return len(self._server)
        with self._lock:
            return len(self._data)


# Process-global registry of node servers: one per (node_id, transport),
# created lazily the first time a connector on that node needs one.
_NODES: dict[tuple[str, str], DIMNode] = {}
_NODES_LOCK = threading.Lock()


def get_local_node(node_id: str, transport: str = 'memory') -> DIMNode:
    """Return (creating if necessary) the storage server for ``node_id``.

    A node that was closed (crashed or shut down) is replaced by a fresh,
    empty instance — rejoining a cluster after a crash starts from zero
    rather than resurrecting a half-dead server.
    """
    with _NODES_LOCK:
        node = _NODES.get((node_id, transport))
        if node is None or node.closed:
            node = DIMNode(node_id, transport)
            _NODES[(node_id, transport)] = node
        return node


def lookup_node(node_id: str, transport: str) -> DIMNode | None:
    """Return the node server if it exists in this process, else ``None``."""
    with _NODES_LOCK:
        return _NODES.get((node_id, transport))


def reset_nodes() -> None:
    """Close and forget every node server (test isolation)."""
    with _NODES_LOCK:
        for node in _NODES.values():
            node.close()
        _NODES.clear()
