"""Consistent-hash ring: the cluster's deterministic placement function.

Placement must satisfy three properties for a self-healing store:

* **Deterministic across processes** — every client (and the background
  rebalancer) computes the same owners for a key without coordination, so
  the hash is :func:`hashlib.blake2b` over stable strings, never Python's
  randomized ``hash()``.
* **Even spread** — each physical node is projected onto the ring as
  ``vnodes`` virtual points, so load variance shrinks as vnodes grow and a
  node's keys scatter over *all* other nodes when it leaves (no single
  successor inherits everything).
* **Minimal movement** — adding or removing one node only re-places the
  keys in the arcs it gains or loses: ~``1/N`` of the key space, which is
  what makes live rebalancing affordable (migrate the delta, not the
  world).
"""
from __future__ import annotations

import bisect
import hashlib
from typing import Dict
from typing import Iterable
from typing import Sequence
from typing import Tuple

__all__ = [
    'DEFAULT_VNODES',
    'HashRing',
    'placement_delta',
    'stable_hash64',
]

#: Virtual points per physical node.  64 keeps the ring small (a few KB for
#: dozens of nodes) while holding per-node load imbalance to a few percent.
DEFAULT_VNODES = 64


def stable_hash64(label: str) -> int:
    """Stable 64-bit hash of ``label`` (process-independent).

    The one placement hash: ring positions here and stream partition
    indices (:func:`repro.stream.groups.partition_for`) both come from it.
    """
    return int.from_bytes(
        hashlib.blake2b(label.encode(), digest_size=8).digest(), 'big',
    )


class HashRing:
    """Immutable consistent-hash ring over a set of node ids.

    Args:
        nodes: the physical node ids participating in placement.
        vnodes: virtual points per node (must be >= 1).
    """

    __slots__ = ('_nodes', 'vnodes', '_points', '_owners_at')

    def __init__(self, nodes: Iterable[str], vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError('vnodes must be at least 1')
        self._nodes: Tuple[str, ...] = tuple(sorted(set(nodes)))
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for node in self._nodes:
            for i in range(vnodes):
                points.append((stable_hash64(f'{node}#{i}'), node))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners_at = [n for _, n in points]

    # -- introspection ----------------------------------------------------- #
    @property
    def nodes(self) -> Tuple[str, ...]:
        """The node ids on the ring, sorted."""
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashRing)
            and self._nodes == other._nodes
            and self.vnodes == other.vnodes
        )

    def __hash__(self) -> int:
        return hash((self._nodes, self.vnodes))

    def __repr__(self) -> str:
        return f'HashRing(nodes={list(self._nodes)!r}, vnodes={self.vnodes})'

    def __reduce__(self):
        """Pickle as (nodes, vnodes) — positions are recomputed, never shipped."""
        return (type(self), (self._nodes, self.vnodes))

    # -- placement --------------------------------------------------------- #
    def owners(self, key: str, n: int = 1) -> Tuple[str, ...]:
        """The first ``n`` distinct nodes clockwise from ``key``'s position.

        The first entry is the key's *primary*; the rest are its replicas in
        preference order.  Fewer than ``n`` nodes on the ring returns them
        all — callers decide whether under-replication is acceptable.
        """
        if not self._nodes:
            return ()
        n = min(n, len(self._nodes))
        if n == len(self._nodes) == 1:
            return self._nodes
        start = bisect.bisect_right(self._points, stable_hash64(key))
        total = len(self._points)
        found: list[str] = []
        for step in range(total):
            node = self._owners_at[(start + step) % total]
            if node not in found:
                found.append(node)
                if len(found) == n:
                    break
        return tuple(found)

    def primary(self, key: str) -> str | None:
        """The key's primary owner (``None`` on an empty ring)."""
        owners = self.owners(key, 1)
        return owners[0] if owners else None

    # -- membership-derived rings ------------------------------------------ #
    def with_nodes(self, *node_ids: str) -> 'HashRing':
        """A new ring with ``node_ids`` added."""
        return HashRing((*self._nodes, *node_ids), self.vnodes)

    def without_nodes(self, *node_ids: str) -> 'HashRing':
        """A new ring with ``node_ids`` removed."""
        dropped = set(node_ids)
        return HashRing(
            (n for n in self._nodes if n not in dropped), self.vnodes,
        )


def placement_delta(
    old: HashRing,
    new: HashRing,
    keys: Sequence[str],
    replicas: int = 1,
) -> Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """Keys whose owner set changes between two rings.

    Returns ``{key: (old_owners, new_owners)}`` for exactly the keys the
    rebalancer must touch; keys whose owners are unchanged are absent.  On a
    single node join or leave this is ~``replicas/N`` of the key space.
    """
    delta: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
    for key in keys:
        before = old.owners(key, replicas)
        after = new.owners(key, replicas)
        if before != after:
            delta[key] = (before, after)
    return delta
