"""Joining the replication tier: the six knobs and the one attach call.

Every clustered connector — ``redis://?nodes=...`` and the DIM schemes
(``zmq://``, ``ucx://``, ``margo://``) with ``replicas >= 2`` — joins the
tier the same way: the six knobs of :class:`ClusterOptions` configure a
:class:`~repro.cluster.membership.ClusterMembership`, a
:class:`~repro.cluster.client.ClusterClient` and (optionally) a
:class:`~repro.cluster.rebalance.Rebalancer` over a list of member node
ids.  :class:`ClusterAttachment` builds the three, owns the *live* member
list (which is what a connector's ``config()`` must report, so that a
consumer rebuilding the connector places keys on the producer's current
ring), and answers ``health()``.  Every edit of a member list bumps the
process-wide :attr:`ClusterAttachment.config_version`, which is how a
Store knows its cached config is stale without asking the connector.

A connector that is not clustered (a single SimKV server, a DIM connector on
the static topology) holds a *detached* attachment — the degenerate case:
no members, no engine, ``health()`` says so and ``join``/``leave`` refuse.
"""
from __future__ import annotations

import dataclasses
from typing import Any
from typing import Callable
from typing import Iterable

from repro.cluster.client import ClusterClient
from repro.cluster.client import DEFAULT_HEDGE_THRESHOLD
from repro.cluster.client import NodeBackend
from repro.cluster.membership import ClusterMembership
from repro.cluster.membership import DEFAULT_FAILURE_THRESHOLD
from repro.cluster.rebalance import Rebalancer
from repro.cluster.ring import DEFAULT_VNODES
from repro.exceptions import ConnectorError

__all__ = ['ClusterAttachment', 'ClusterOptions']


@dataclasses.dataclass(frozen=True)
class ClusterOptions:
    """The six replication-tier knobs, by their keyword/URL/``config()`` names.

    The defaults are the DIM connectors' (static topology unless asked);
    ``redis://`` cluster mode starts from ``replicas=2`` and
    ``ring_vnodes=DEFAULT_VNODES``.

    Attributes:
        replicas: copies written per plain object.  ``>= 2`` places keys on
            a consistent-hash ring over the members and enables hedged
            reads, read-repair, crash failover and background rebalancing.
        ring_vnodes: virtual ring points per member.  ``0`` means
            :data:`~repro.cluster.ring.DEFAULT_VNODES` once clustered (and,
            for DIM, "not clustered" while ``replicas == 1``).
        hedge_threshold: seconds the primary replica may stay silent before
            a read is hedged to the second replica (``0`` disables).
        failure_threshold: consecutive unreachable failures before a member
            is declared dead and dropped from the ring.
        rebalance: migrate ring-delta keys in the background after
            membership changes.
        rebalance_throttle: optional bytes/second cap on migration copies.
    """

    replicas: int = 1
    ring_vnodes: int = 0
    hedge_threshold: float = DEFAULT_HEDGE_THRESHOLD
    failure_threshold: int = DEFAULT_FAILURE_THRESHOLD
    rebalance: bool = True
    rebalance_throttle: float | None = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError('replicas must be at least 1')

    @classmethod
    def from_url(cls, url: Any, **defaults: Any) -> 'ClusterOptions':
        """Consume the six knobs from an already-parsed store URL.

        ``url`` is a :class:`~repro.connectors.registry.StoreURL` (anything
        with its ``pop_int``/``pop_float``/``pop_bool``); ``defaults``
        override the field defaults for parameters the URL omits.
        """
        base = cls(**defaults)
        return cls(
            replicas=url.pop_int('replicas', base.replicas),
            ring_vnodes=url.pop_int('ring_vnodes', base.ring_vnodes),
            hedge_threshold=url.pop_float(
                'hedge_threshold', base.hedge_threshold,
            ),
            failure_threshold=url.pop_int(
                'failure_threshold', base.failure_threshold,
            ),
            rebalance=url.pop_bool('rebalance', base.rebalance),
            rebalance_throttle=url.pop_float(
                'rebalance_throttle', base.rebalance_throttle,
            ),
        )


class ClusterAttachment:
    """One connector's seat in the replication tier (or its absence).

    Args:
        options: the six knobs.
        members: initial member node ids; empty means *detached*.
        node_for: resolves a member id to the handle speaking the eight
            storage verbs (see :class:`~repro.cluster.client.ClusterClient`).
        key_filter: which stored keys take part in ring placement (passed
            to the rebalancer).

    Attributes:
        attached: whether there is a cluster behind this attachment.
        members: the live member list, in join order.  Voluntary
            ``join``/``leave`` edit it; a crash does not (the node stays
            listed so it can rejoin under the same id).
        membership / client / rebalancer: the three parts, ``None`` while
            detached (``rebalancer`` also with ``rebalance=False``).
        config_version: a class-wide count of member-list edits on every
            attachment in the process, bumped after each edit.  Only
            ``join``/``leave`` edit the list: a crash the failure detector
            declares leaves the node listed, so no ``config()`` moves.
    """

    config_version = 0

    def __init__(
        self,
        options: ClusterOptions,
        members: Iterable[str],
        node_for: Callable[[str], NodeBackend],
        *,
        key_filter: Callable[[str], bool] | None = None,
    ) -> None:
        self.options = options
        self.members = tuple(dict.fromkeys(members))
        self.attached = bool(self.members)
        self.membership: ClusterMembership | None = None
        self.client: ClusterClient | None = None
        self.rebalancer: Rebalancer | None = None
        if not self.attached:
            return
        self.membership = ClusterMembership(
            self.members,
            vnodes=options.ring_vnodes or DEFAULT_VNODES,
            failure_threshold=options.failure_threshold,
        )
        self.client = ClusterClient(
            node_for,
            self.membership,
            replicas=options.replicas,
            hedge_threshold=options.hedge_threshold,
        )
        if options.rebalance:
            self.rebalancer = Rebalancer(
                self.client,
                throttle_bytes_per_s=options.rebalance_throttle,
                key_filter=key_filter,
            )

    def config(self) -> dict[str, Any]:
        """The six knobs as ``config()`` entries, in their canonical order.

        ``rebalance`` reports whether a rebalancer is actually running, so
        a detached attachment says ``False``.
        """
        return {
            **dataclasses.asdict(self.options),
            'rebalance': self.rebalancer is not None,
        }

    def require(self, op: str) -> None:
        """Raise :class:`ConnectorError` naming ``op`` while detached."""
        if not self.attached:
            raise ConnectorError(f'{op} requires a clustered connector')

    def health(self) -> dict[str, Any]:
        """Membership, per-node health, and self-healing counters."""
        if self.membership is None or self.client is None:
            return {'clustered': False, 'replicas': 1}
        health = {
            'clustered': True,
            'replicas': self.options.replicas,
            'ring_vnodes': self.membership.vnodes,
            'ring': list(self.membership.ring.nodes),
            'nodes': self.membership.health(),
            'stats': self.client.stats.as_dict(),
        }
        if self.rebalancer is not None:
            health['rebalance'] = self.rebalancer.stats.as_dict()
        return health

    def join(self, node_id: str) -> None:
        """Add (or revive) a member; the rebalancer pulls its key share."""
        self.require('join')
        self.membership.join(node_id)  # type: ignore[union-attr]
        self.members = tuple(dict.fromkeys((*self.members, node_id)))
        ClusterAttachment.config_version += 1

    def leave(self, node_id: str) -> None:
        """Voluntarily retire a member; its keys drain to the new owners.

        The node stays reachable while the background rebalancer copies
        its share to the remaining members (``rebalancer.wait_idle()``
        blocks until the drain completes).
        """
        self.require('leave')
        self.membership.leave(node_id)  # type: ignore[union-attr]
        self.members = tuple(n for n in self.members if n != node_id)
        ClusterAttachment.config_version += 1

    def bind_metrics(self, metrics: Any) -> None:
        """Thread per-node health and cluster events into store metrics."""
        if self.client is not None:
            self.client.bind_metrics(metrics)

    def close(self) -> None:
        """Stop the rebalancer and the engine's executor (handles stay open)."""
        if self.rebalancer is not None:
            self.rebalancer.stop()
        if self.client is not None:
            self.client.close()
