"""Broker failover for partitioned streaming topics.

The PR 7 group layer placed every partition topic on exactly one broker:
a broker crash lost the topic's retention ring and stalled its
subscribers forever.  This module closes that gap with the same recipe
the DIM cluster uses for data keys:

* **Replicated retention** — publishers write to the partition's ring
  *primary* (which assigns sequence numbers), then mirror the events —
  with their explicit sequence numbers — onto the next ``replicas - 1``
  ring successors via ``REPL_PUBLISH``.  Every replica therefore holds
  the same ring with the same numbering.
* **Streak-based death detection** — every broker operation outcome is
  recorded into a shared :class:`~repro.cluster.membership.ClusterMembership`;
  a streak of :class:`~repro.exceptions.NodeUnavailableError` failures
  marks the broker dead, after which owner resolution simply skips it.
* **Cursor-preserving subscriber failover** — :class:`FailoverSubscription`
  wraps one :class:`~repro.stream.bus.Subscription` cursor at a time; when
  the broker under it dies it opens a cursor on the next live ring owner
  *from the old cursor's position*.  Because replicas share the primary's
  numbering, the resume is exact: delivered/redelivered/lost accounting
  carries over without renumbering.  Finding the next owner is the
  router's one owner walk
  (:meth:`~repro.stream.groups.PartitionRouter.first_live`) — the same
  loop, and the only backoff, that publishes and coordinator commands
  use; with one owner per partition it is what rides out a restart.

The placement ring itself deliberately stays **static** over the full
broker fleet: failover changes which *owner in the list* serves a
partition, never the owner list itself, so every producer and consumer
process — each with its own independent failure detector — converges on
the same replica without coordination.
"""
from __future__ import annotations

from typing import Any
from typing import TYPE_CHECKING

from repro.exceptions import ConnectorError
from repro.exceptions import NodeUnavailableError

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.stream.groups import PartitionRouter

__all__ = ['FailoverSubscription']


class FailoverSubscription:
    """A subscription that survives broker death by re-subscribing.

    Wraps one cursor (``bus.subscribe``) on the partition topic's current
    live ring owner.  When its fetch fails with a
    :class:`~repro.exceptions.ConnectorError`, the failure is recorded
    into the router's failure detector (a streak of
    :class:`~repro.exceptions.NodeUnavailableError` marks the broker
    dead) and a cursor is opened on the next live owner from the current
    position — which is exact, because replicas mirror the primary's
    sequence numbering.

    Has the cursor's interface (``next_batch``, ``position``, ``lost``,
    ``close``), so group consumers use it interchangeably with a plain
    :class:`~repro.stream.bus.Subscription`.
    """

    def __init__(
        self,
        router: 'PartitionRouter',
        topic: str,
        *,
        from_seq: int | None = None,
    ) -> None:
        self._router = router
        self.topic = topic
        self._sub: Any = None
        #: Ring node id of the broker currently serving the subscription.
        self.broker: str | None = None
        #: Lost counts harvested from subscriptions already failed over.
        self._lost_prior = 0
        self._position = int(from_seq) if from_seq is not None else 0
        #: How many times this subscription failed over to another broker.
        self.failovers = 0
        self._closed = False
        self._connect(from_seq)

    def __repr__(self) -> str:
        return (
            f'FailoverSubscription(topic={self.topic!r}, '
            f'broker={self.broker!r}, failovers={self.failovers})'
        )

    # -- connection management ---------------------------------------------- #
    def _connect(self, from_seq: int | None) -> None:
        """(Re)subscribe on the first live ring owner.

        The router's owner walk tries owners alive-first, so a dead primary
        costs one recorded failure before the replica answers; a broker
        that refuses the subscription for any other reason is walked past
        the same way.
        """
        self.broker, self._sub = self._router.first_live(
            self.topic,
            lambda node: self._router.bus_of(node).subscribe(
                self.topic, from_seq=from_seq,
            ),
            walk_past=ConnectorError,
        )
        if self._closed:  # closed from another thread during the walk
            self._sub.close()

    def _failover(self) -> None:
        """Swap to the next live owner, resuming from the current cursor."""
        old, self._sub = self._sub, None
        resume = self._position
        if old is not None:
            # Fold the dead subscription's accounting into ours before it
            # goes away: its cursor is where delivery stopped, its lost
            # count stays counted.
            resume = max(resume, old.position)
            self._lost_prior += old.lost
            old.close()
        self._position = resume
        self.failovers += 1
        self._connect(resume)

    # -- the cursor's interface --------------------------------------------- #
    @property
    def position(self) -> int:
        """The next sequence number expected (cursor in primary numbering)."""
        return self._position if self._sub is None else self._sub.position

    @property
    def lost(self) -> int:
        """Events lost to retention ageing, summed across failovers."""
        return self._lost_prior + (0 if self._sub is None else self._sub.lost)

    def next_batch(self, timeout: float | None = None) -> list:
        """Return the next delivered ``(seq, payload)`` batch.

        A connector failure from the wrapped cursor triggers failover
        instead of propagating: the failure is recorded against the
        broker, a cursor is opened on the next live owner,
        and an empty batch is returned for this slice (delivery resumes
        on the following poll).
        """
        if self._closed:
            return []
        if self._sub is None:
            self._connect(self._position)
        sub = self._sub  # close() from another thread may drop it meanwhile
        try:
            batch = sub.next_batch(timeout=timeout)
        except ConnectorError as e:
            if self.broker is not None:
                self._router.record(
                    self.broker,
                    ok=False,
                    unavailable=isinstance(e, NodeUnavailableError),
                    error=e,
                )
            self._failover()
            return []
        self._position = max(self._position, sub.position)
        return batch

    def close(self) -> None:
        """Close the wrapped cursor (idempotent)."""
        if self._closed:
            return
        self._closed = True
        sub, self._sub = self._sub, None
        if sub is not None:
            sub.close()

    def __enter__(self) -> 'FailoverSubscription':
        """Context-manager entry (closes the subscription on exit)."""
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        """Close on context exit."""
        self.close()
