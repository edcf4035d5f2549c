"""N-way replicated reads and writes over the consistent-hash ring.

:class:`ClusterClient` is the generic replication engine shared by the DIM
connectors (per-node storage servers) and the clustered Redis connector
(multiple SimKV servers); each reaches it through its
:class:`~repro.cluster.attach.ClusterAttachment` (``_cluster``).  It is
parameterized by a *resolver* that maps a node id to a
:class:`NodeBackend` — anything speaking the eight storage verbs, in
practice a :class:`~repro.kvserver.client.KVClient` or an in-process
:class:`~repro.dim.node.DIMNode`.  The resolver is the connector's own:
``DIMConnectorBase._node`` for a DIM peer id, the Redis connector's
per-node client table for a ``host:port`` — so the engine itself contains
no socket code.  The engine speaks the same eight verbs (a
cluster *is* a node, just a replicated one), which is what lets a
connector bind either a single server or a cluster to one attribute.

Semantics:

* **set** writes the value to all ``replicas`` owners in parallel.  A
  partial failure first evicts the replicas that *did* land (a failed put
  must never leak broker memory — the orphan-replica guarantee), then
  either retries against the recomputed ring (the failure was a node
  crash, now excluded from placement) or re-raises (the request itself was
  bad).
* **get** reads the primary, and *hedges*: if the primary has not answered
  within ``hedge_threshold`` seconds, the same read is issued to the
  second replica and whichever returns first wins — slow nodes cost one
  threshold, not a timeout.  Unavailable replicas trigger failover to the
  next owner, and **read-repair** writes the recovered value back to any
  live owner that was found missing it.
* Every per-node outcome feeds :class:`ClusterMembership` health, so
  crashes discovered by ordinary traffic remove the node from placement
  without any dedicated failure detector.
"""
from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait
from dataclasses import dataclass
from time import perf_counter
from typing import Any
from typing import Callable
from typing import Dict
from typing import List
from typing import Protocol
from typing import Sequence
from typing import Tuple
from typing import runtime_checkable

from repro.cluster.membership import ClusterMembership
from repro.exceptions import NodeUnavailableError

__all__ = [
    'ClusterClient',
    'ClusterStats',
    'DEFAULT_HEDGE_THRESHOLD',
    'NodeBackend',
]

#: Seconds the primary replica may stay silent before the same read is
#: hedged to the second replica.  50 ms is far above a healthy intra-site
#: round trip but far below any connect/retry timeout.
DEFAULT_HEDGE_THRESHOLD = 0.05

#: Upper bound on threads used for one client's replicated fan-out.
_MAX_PARALLEL = 8

#: Times a put is re-placed against the updated ring after a
#: replica-unavailable failure.
_PUT_RETRIES = 2


@runtime_checkable
class NodeBackend(Protocol):
    """The eight verbs every storage node speaks.

    The names are :class:`~repro.kvserver.client.KVClient`'s, so a KV
    client *is* a node backend with no adapter; the in-process
    :class:`~repro.dim.node.DIMNode` and :class:`ClusterClient` implement
    the same names.  Implementations raise :class:`NodeUnavailableError`
    when the node cannot be reached, which is the engine's failover/crash
    signal.  What ``delete``/``mdel`` return is not part of the contract.
    """

    def set(self, key: str, value: Any) -> Any:
        """Store ``value`` under ``key`` on this node."""
        ...

    def mset(self, items: Sequence[Tuple[str, Any]]) -> Any:
        """Store several pairs in one round trip."""
        ...

    def get(self, key: str) -> Any | None:
        """Fetch ``key`` (``None`` when missing)."""
        ...

    def mget(self, keys: Sequence[str]) -> List[Any]:
        """Fetch several keys in one round trip (``None`` per miss)."""
        ...

    def exists(self, key: str) -> bool:
        """Whether ``key`` is stored on this node."""
        ...

    def delete(self, key: str) -> Any:
        """Remove ``key`` (no-op when missing)."""
        ...

    def mdel(self, keys: Sequence[str]) -> Any:
        """Remove several keys in one round trip."""
        ...

    def keys(self) -> List[str]:
        """Every key stored on this node (rebalancer enumeration)."""
        ...


@dataclass
class ClusterStats:
    """Counters describing the replication engine's self-healing work."""

    hedged_reads: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    read_repairs: int = 0
    orphans_evicted: int = 0
    orphan_evict_failures: int = 0
    put_retries: int = 0
    repair_failures: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-friendly snapshot."""
        return {
            'hedged_reads': self.hedged_reads,
            'hedge_wins': self.hedge_wins,
            'failovers': self.failovers,
            'read_repairs': self.read_repairs,
            'orphans_evicted': self.orphans_evicted,
            'orphan_evict_failures': self.orphan_evict_failures,
            'put_retries': self.put_retries,
            'repair_failures': self.repair_failures,
        }


class ClusterClient:
    """Replicated operations against the membership's current ring.

    Args:
        node_for: resolves a node id to its :class:`NodeBackend`.  Called
            on every operation — the owner caches what is worth caching —
            so a rejoined node's fresh address is picked up; it raises
            :class:`NodeUnavailableError` for a node it cannot reach.
        membership: the cluster membership supplying the placement ring.
        replicas: copies written per key (1 = no replication).
        hedge_threshold: seconds of primary silence before a read is
            hedged to the second replica (``0`` disables hedging).
    """

    def __init__(
        self,
        node_for: Callable[[str], NodeBackend],
        membership: ClusterMembership,
        *,
        replicas: int = 2,
        hedge_threshold: float = DEFAULT_HEDGE_THRESHOLD,
    ) -> None:
        if replicas < 1:
            raise ValueError('replicas must be at least 1')
        self.membership = membership
        self.replicas = replicas
        self.hedge_threshold = hedge_threshold
        self.stats = ClusterStats()
        self._node_for = node_for
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._metrics: Any = None

    # -- plumbing ----------------------------------------------------------- #
    def backend(self, node_id: str) -> NodeBackend:
        """The node handle for ``node_id``, resolved afresh on every call."""
        return self._node_for(node_id)

    def _pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=_MAX_PARALLEL,
                    thread_name_prefix='cluster-io',
                )
            return self._executor

    def bind_metrics(self, metrics: Any) -> None:
        """Thread engine events and per-node health into ``StoreMetrics``."""
        self._metrics = metrics
        self.membership.bind_metrics(metrics)

    def _bump(self, counter: str, amount: int = 1, elapsed: float = 0.0) -> None:
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + amount)
        metrics = self._metrics
        if metrics is not None:
            metrics.record(f'cluster.{counter}', elapsed)

    def _call(self, node_id: str, op: Callable[[NodeBackend], Any]) -> Any:
        """Run one backend operation, folding the outcome into health."""
        start = perf_counter()
        try:
            result = op(self.backend(node_id))
        except NodeUnavailableError as e:
            self.membership.record(
                node_id, ok=False, unavailable=True, error=e,
            )
            raise
        except Exception as e:  # noqa: BLE001 - health bookkeeping only
            self.membership.record(node_id, ok=False, error=e)
            raise
        self.membership.record(node_id, ok=True, elapsed=perf_counter() - start)
        return result

    def owners(self, key: str) -> Tuple[str, ...]:
        """Current owners of ``key`` (primary first)."""
        return self.membership.ring.owners(key, self.replicas)

    # -- writes -------------------------------------------------------------- #
    def set(self, key: str, value: Any) -> Tuple[str, ...]:
        """Write ``value`` to all owners of ``key``; returns where it landed.

        Self-healing: a replica that turns out to be dead is excluded from
        the ring by its own failure, the copies that landed are evicted
        (never leak a failed put), and the write is re-placed — so a put
        racing a node crash succeeds on the surviving nodes.
        """
        return self.mset([(key, value)])[key]

    def mset(
        self, items: Sequence[Tuple[str, Any]],
    ) -> Dict[str, Tuple[str, ...]]:
        """Replicated write of several pairs, one batch per node per round.

        Returns ``{key: owners}`` for every key.  Keys whose writes fully
        landed in an earlier round are not retried when others are
        re-placed.
        """
        remaining: Dict[str, Any] = dict(items)
        placements: Dict[str, Tuple[str, ...]] = {}
        last_error: Exception | None = None
        for attempt in range(_PUT_RETRIES + 1):
            if not remaining:
                return placements
            ring = self.membership.ring
            if not len(ring):
                raise NodeUnavailableError(
                    'no alive nodes remain in the cluster',
                )
            owners_of = {
                key: ring.owners(key, self.replicas) for key in remaining
            }
            by_node: Dict[str, List[Tuple[str, Any]]] = {}
            for key, value in remaining.items():
                for node_id in owners_of[key]:
                    by_node.setdefault(node_id, []).append((key, value))

            def write(node_id: str, batch: List[Tuple[str, Any]]) -> None:
                self._call(node_id, lambda b: b.mset(batch))

            pool = self._pool()
            futures = {
                pool.submit(write, node_id, batch): node_id
                for node_id, batch in by_node.items()
            }
            failed: Dict[str, Exception] = {}
            for future, node_id in futures.items():
                try:
                    future.result()
                # repro: ignore[RP004] - failures partition the batch and
                # surface via put_retries / PartialWriteError below
                except Exception as e:  # noqa: BLE001 - sorted below
                    failed[node_id] = e
            if not failed:
                placements.update(owners_of)
                return placements
            # Partition keys: fully landed vs touched by a failed node.
            affected = {
                key: value
                for key, value in remaining.items()
                if any(node_id in failed for node_id in owners_of[key])
            }
            for key in remaining:
                if key not in affected:
                    placements[key] = owners_of[key]
            # Orphan-replica cleanup: evict the copies of affected keys
            # that landed on healthy nodes — a failed replicated put must
            # never leak broker memory.
            self._evict_orphans(affected, owners_of, failed)
            hard = [
                e for e in failed.values()
                if not isinstance(e, NodeUnavailableError)
            ]
            if hard:
                raise hard[0]
            last_error = next(iter(failed.values()))
            remaining = affected
            if attempt < _PUT_RETRIES:
                self._bump('put_retries')
        raise NodeUnavailableError(
            f'replicated put failed for {len(remaining)} key(s) after '
            f'{_PUT_RETRIES + 1} placement attempts: {last_error}',
        )

    def _evict_orphans(
        self,
        affected: Dict[str, Any],
        owners_of: Dict[str, Tuple[str, ...]],
        failed: Dict[str, Exception],
    ) -> None:
        """Best-effort eviction of partially landed replicas."""
        by_node: Dict[str, List[str]] = {}
        for key in affected:
            for node_id in owners_of[key]:
                if node_id not in failed:
                    by_node.setdefault(node_id, []).append(key)
        evicted = 0
        for node_id, keys in by_node.items():
            try:
                self._call(node_id, lambda b, ks=keys: b.mdel(ks))
                evicted += len(keys)
            except Exception:  # noqa: BLE001 - best effort by design,
                # but the miss is still visible on dashboards
                self._bump('orphan_evict_failures', len(keys))
                continue
        if evicted:
            self._bump('orphans_evicted', evicted)

    # -- reads --------------------------------------------------------------- #
    def _fetch(self, node_id: str, key: str) -> Tuple[str, Any]:
        """One replica read: ``('ok', value)``, ``('miss', None)`` or ``('down', None)``."""
        try:
            value = self._call(node_id, lambda b: b.get(key))
        except NodeUnavailableError:
            return ('down', None)
        if value is None:
            return ('miss', None)
        return ('ok', value)

    def get(self, key: str, candidates: Sequence[str] = ()) -> Any | None:
        """Replicated read with hedging, failover, and read-repair.

        ``candidates`` (e.g. the replica list recorded in a key) are tried
        before the ring's current owners; the union covers both a key's
        original placement and wherever migration has since re-homed it.
        """
        order: List[str] = []
        for node_id in (*candidates, *self.owners(key)):
            if node_id not in order:
                order.append(node_id)
        # Prefer live nodes; known-dead ones go last (they may have revived
        # without us noticing, but should not eat the hedge window).
        order.sort(key=lambda n: self.membership.state_of(n) == 'dead')
        if not order:
            return None

        pool = self._pool()
        outcomes: Dict[str, str] = {}
        value: Any = None
        rest = list(order[1:])
        inflight = {pool.submit(self._fetch, order[0], key): order[0]}
        hedge_node: str | None = None
        if rest and self.hedge_threshold > 0:
            done, _ = wait(list(inflight), timeout=self.hedge_threshold)
            if not done:
                # Primary is slow: race the second replica against it.
                hedge_node = rest.pop(0)
                self._bump('hedged_reads')
                inflight[pool.submit(self._fetch, hedge_node, key)] = hedge_node
        while inflight:
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                node_id = inflight.pop(future)
                status, fetched = future.result()
                outcomes[node_id] = status
                if status == 'ok' and value is None:
                    value = fetched
                    if node_id == hedge_node:
                        self._bump('hedge_wins')
            if value is not None:
                break
            if not inflight and rest:
                # Every consulted replica missed or is down: fail over.
                next_node = rest.pop(0)
                self._bump('failovers')
                inflight[pool.submit(self._fetch, next_node, key)] = next_node
        if value is not None:
            self._repair(key, value, outcomes)
        return value

    def _repair(self, key: str, value: Any, outcomes: Dict[str, str]) -> None:
        """Write a recovered value back to live owners found missing it."""
        targets = [
            node_id
            for node_id in self.owners(key)
            if outcomes.get(node_id) == 'miss'
            and self.membership.state_of(node_id) == 'alive'
        ]
        for node_id in targets:
            try:
                self._call(node_id, lambda b: b.set(key, value))
            except Exception:  # noqa: BLE001 - repair is best effort,
                # but a node that refuses repairs should not hide
                self._bump('repair_failures')
                continue
            self._bump('read_repairs')

    def mget(self, keys: Sequence[str]) -> List[Any]:
        """Fetch several keys: one batched read per primary, then repair.

        Keys are grouped by their primary owner and fetched with one
        ``mget`` round trip per node in parallel; any key whose
        primary missed (or whose node is down) falls back to the full
        replicated :meth:`get` path (failover + read-repair).
        """
        results: List[Any] = [None] * len(keys)
        by_node: Dict[str, List[Tuple[int, str]]] = {}
        for i, key in enumerate(keys):
            owners = self.owners(key)
            if not owners:
                continue
            by_node.setdefault(owners[0], []).append((i, key))

        retry: List[Tuple[int, str]] = []

        def fetch(node_id: str, wanted: List[Tuple[int, str]]) -> None:
            try:
                values = self._call(
                    node_id, lambda b: b.mget([k for _, k in wanted]),
                )
            except NodeUnavailableError:
                retry.extend(wanted)
                return
            for (i, key), value in zip(wanted, values):
                if value is None:
                    retry.append((i, key))
                else:
                    results[i] = value

        pool = self._pool()
        futures = [
            pool.submit(fetch, node_id, wanted)
            for node_id, wanted in by_node.items()
        ]
        for future in futures:
            future.result()
        for i, key in retry:
            results[i] = self.get(key)
        return results

    # -- other operations ----------------------------------------------------- #
    def exists(self, key: str, candidates: Sequence[str] = ()) -> bool:
        """Whether any live replica of ``key`` holds a value."""
        seen: List[str] = []
        for node_id in (*candidates, *self.owners(key)):
            if node_id in seen:
                continue
            seen.append(node_id)
            try:
                if self._call(node_id, lambda b: b.exists(key)):
                    return True
            except NodeUnavailableError:
                continue
        return False

    def delete(self, key: str, candidates: Sequence[str] = ()) -> None:
        """Remove ``key`` from every node that may hold it (best effort)."""
        self.mdel([key], {key: tuple(candidates)})

    def mdel(
        self,
        keys: Sequence[str],
        candidates: Dict[str, Tuple[str, ...]] | None = None,
    ) -> None:
        """Remove several keys, one batched delete per node.

        ``candidates`` optionally maps a key to extra nodes (e.g. the
        replica list recorded at put time) beyond the ring's current
        owners.  Unreachable nodes are skipped — their copies died with
        them.
        """
        by_node: Dict[str, List[str]] = {}
        for key in keys:
            extra = (candidates or {}).get(key, ())
            targets = {*extra, *self.owners(key)}
            for node_id in targets:
                by_node.setdefault(node_id, []).append(key)

        def drop(node_id: str, batch: List[str]) -> None:
            try:
                self._call(node_id, lambda b: b.mdel(batch))
            except NodeUnavailableError:
                pass

        pool = self._pool()
        futures = [
            pool.submit(drop, node_id, batch)
            for node_id, batch in by_node.items()
        ]
        for future in futures:
            future.result()

    def keys(self) -> List[str]:
        """Every key held by any reachable node, each listed once."""
        found: Dict[str, None] = {}
        for node_id in self.membership.reachable():
            try:
                found.update(
                    dict.fromkeys(self._call(node_id, lambda b: b.keys())),
                )
            except NodeUnavailableError:
                continue
        return list(found)

    def close(self) -> None:
        """Shut down the fan-out executor (node handles are owned by callers)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)
