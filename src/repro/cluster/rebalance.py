"""Background shard migration: heal the cluster after membership changes.

The placement function (the ring) is *stable*: at any moment every client
agrees where a key's replicas belong.  Membership changes move that target,
and the :class:`Rebalancer` moves the data to follow it — in the
background, so foreground traffic keeps priority:

* a **join** pulls the ~``1/N`` of keys whose arcs the new node acquired;
* a **voluntary leave** drains the departing (still reachable) node's keys
  to their new owners before its copies are dropped;
* a **crash** re-replicates every key that lost a copy from its surviving
  replicas to the ring's new owners — this is what makes ``replicas=2``
  survive repeated single-node failures, not just the first one.

Only the *ring-delta* keys are streamed (holders are enumerated with the
cheap ``KEYS`` command and compared against current owners), and the copy
loop is throttled: an optional byte-rate leaky bucket plus a fixed pause
between key batches keeps the migration's bandwidth share bounded.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any
from typing import Callable
from typing import Dict
from typing import List
from typing import Set

from repro.cluster.client import ClusterClient
from repro.exceptions import NodeUnavailableError
from repro.serialize.buffers import payload_nbytes

__all__ = ['RebalanceStats', 'Rebalancer']

#: Keys copied between throttle pauses.
DEFAULT_BATCH_SIZE = 32

#: Seconds slept between key batches (foreground-priority yield).
DEFAULT_PAUSE_S = 0.002


@dataclass
class RebalanceStats:
    """Cumulative counters across every migration run."""

    runs: int = 0
    keys_examined: int = 0
    keys_migrated: int = 0
    bytes_migrated: int = 0
    keys_dropped: int = 0
    failed_runs: int = 0
    last_duration_s: float = 0.0
    last_reason: str = ''

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot."""
        return {
            'runs': self.runs,
            'keys_examined': self.keys_examined,
            'keys_migrated': self.keys_migrated,
            'bytes_migrated': self.bytes_migrated,
            'keys_dropped': self.keys_dropped,
            'failed_runs': self.failed_runs,
            'last_duration_s': round(self.last_duration_s, 4),
            'last_reason': self.last_reason,
        }


class Rebalancer:
    """Worker thread migrating ring-delta keys after membership changes.

    Args:
        cluster: the replication engine whose membership/backends to heal.
        throttle_bytes_per_s: byte-rate cap on migration copies (``None``
            = unthrottled).
        key_filter: predicate selecting which stored keys participate in
            ring placement (the DIM layer excludes stripe shards, whose
            locations are pinned in their parent key).

    Every :data:`DEFAULT_BATCH_SIZE` copied keys the worker sleeps
    :data:`DEFAULT_PAUSE_S` so foreground traffic keeps priority.  Once
    every owner holds a key, the copies left on nodes that no longer own
    it are dropped (this frees departed and stale memory).
    """

    def __init__(
        self,
        cluster: ClusterClient,
        *,
        throttle_bytes_per_s: float | None = None,
        key_filter: Callable[[str], bool] | None = None,
    ) -> None:
        self.cluster = cluster
        self.throttle_bytes_per_s = throttle_bytes_per_s
        self.key_filter = key_filter
        self.stats = RebalanceStats()
        self._cond = threading.Condition()
        self._dirty_reasons: List[str] = []
        self._busy = False
        self._stopped = False
        self._thread: threading.Thread | None = None
        cluster.membership.subscribe(self._on_ring_change)

    # -- scheduling --------------------------------------------------------- #
    def _on_ring_change(self, old_ring: Any, new_ring: Any, reason: str) -> None:
        self.schedule(reason)

    def schedule(self, reason: str = 'manual') -> None:
        """Queue a migration pass (coalesced with any already pending)."""
        with self._cond:
            if self._stopped:
                return
            self._dirty_reasons.append(reason)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._worker, name='cluster-rebalance', daemon=True,
                )
                self._thread.start()
            self._cond.notify_all()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no migration is pending or running; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._dirty_reasons or self._busy:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    def stop(self) -> None:
        """Stop the worker (pending migrations are abandoned)."""
        with self._cond:
            self._stopped = True
            self._dirty_reasons.clear()
            self._cond.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._dirty_reasons and not self._stopped:
                    self._cond.wait()
                if self._stopped:
                    return
                reasons = ','.join(self._dirty_reasons)
                self._dirty_reasons.clear()
                self._busy = True
            try:
                self._migrate(reasons)
            except Exception:  # noqa: BLE001 - a failed pass must not kill
                # the worker; the next membership change reschedules —
                # but the failure must stay visible on dashboards.
                with self._cond:
                    self.stats.failed_runs += 1
                metrics = self.cluster._metrics
                if metrics is not None:
                    metrics.record('cluster.rebalance_failures', 0.0)
            finally:
                with self._cond:
                    self._busy = False
                    self._cond.notify_all()

    # -- migration ----------------------------------------------------------- #
    def _holders(self) -> Dict[str, Set[str]]:
        """Map each placement-participating key to the nodes holding it."""
        holders: Dict[str, Set[str]] = {}
        for node_id in self.cluster.membership.reachable():
            try:
                stored = self.cluster._call(node_id, lambda b: b.keys())
            except NodeUnavailableError:
                continue
            for key in stored:
                if self.key_filter is not None and not self.key_filter(key):
                    continue
                holders.setdefault(key, set()).add(node_id)
        return holders

    def _migrate(self, reason: str) -> None:
        start = time.monotonic()
        cluster = self.cluster
        membership = cluster.membership
        holders = self._holders()
        copied = 0
        copied_bytes = 0
        dropped = 0
        bucket_started = time.monotonic()
        in_batch = 0
        for key, holding in holders.items():
            ring = membership.ring
            if not len(ring):
                break  # no alive nodes to migrate onto
            owners = set(ring.owners(key, cluster.replicas))
            missing = owners - holding
            if missing:
                value = self._read_copy(key, holding)
                if value is not None:
                    for node_id in sorted(missing):
                        if self._write_copy(node_id, key, value):
                            holding.add(node_id)
                            copied += 1
                            copied_bytes += payload_nbytes(value)
                            in_batch += 1
            if owners and owners <= holding:
                for node_id in sorted(holding - owners):
                    if self._drop_copy(node_id, key):
                        dropped += 1
            if in_batch >= DEFAULT_BATCH_SIZE:
                in_batch = 0
                time.sleep(DEFAULT_PAUSE_S)
                if self.throttle_bytes_per_s:
                    target = copied_bytes / self.throttle_bytes_per_s
                    excess = target - (time.monotonic() - bucket_started)
                    if excess > 0:
                        time.sleep(excess)
        with self._cond:
            self.stats.runs += 1
            self.stats.keys_examined += len(holders)
            self.stats.keys_migrated += copied
            self.stats.bytes_migrated += copied_bytes
            self.stats.keys_dropped += dropped
            self.stats.last_duration_s = time.monotonic() - start
            self.stats.last_reason = reason
        metrics = cluster._metrics
        if metrics is not None and (copied or dropped):
            metrics.record(
                'cluster.rebalance',
                self.stats.last_duration_s,
                copied_bytes,
            )

    def _read_copy(self, key: str, holding: Set[str]) -> Any | None:
        """Fetch one replica to copy from, preferring alive holders."""
        membership = self.cluster.membership
        ordered = sorted(
            holding, key=lambda n: membership.state_of(n) != 'alive',
        )
        for node_id in ordered:
            try:
                value = self.cluster._call(node_id, lambda b: b.get(key))
            except NodeUnavailableError:
                continue
            if value is not None:
                return value
        return None

    def _write_copy(self, node_id: str, key: str, value: Any) -> bool:
        try:
            self.cluster._call(node_id, lambda b: b.set(key, value))
            return True
        except NodeUnavailableError:
            return False

    def _drop_copy(self, node_id: str, key: str) -> bool:
        try:
            self.cluster._call(node_id, lambda b: b.delete(key))
            return True
        except NodeUnavailableError:
            return False
