"""Per-operation metrics recorded by a Store.

When a Store is created with ``metrics=True`` every put/get/proxy/evict and
(de)serialization records its wall-clock duration and payload size.  The
component-level benchmarks use these to report the same quantities the paper
does (operation latency versus payload size) and the applications use them to
attribute time to communication versus compute.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterator

__all__ = ['OperationStats', 'StoreMetrics', 'Timer']


class Timer:
    """Context manager measuring elapsed wall-clock seconds."""

    def __init__(self) -> None:
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> 'Timer':
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.elapsed = time.perf_counter() - self.start


@dataclass
class OperationStats:
    """Aggregated statistics for one operation type (e.g. ``'put'``)."""

    count: int = 0
    total_time: float = 0.0
    min_time: float = float('inf')
    max_time: float = 0.0
    total_bytes: int = 0

    def record(self, elapsed: float, nbytes: int = 0) -> None:
        """Fold one call taking ``elapsed`` seconds into the aggregates."""
        self.count += 1
        self.total_time += elapsed
        self.min_time = min(self.min_time, elapsed)
        self.max_time = max(self.max_time, elapsed)
        self.total_bytes += nbytes

    @property
    def avg_time(self) -> float:
        """Mean per-call duration in seconds (0.0 when never recorded)."""
        return self.total_time / self.count if self.count else 0.0


class StoreMetrics:
    """Thread-safe container of :class:`OperationStats` keyed by operation name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ops: dict[str, OperationStats] = {}

    def record(self, operation: str, elapsed: float, nbytes: int = 0) -> None:
        """Record one call of ``operation`` taking ``elapsed`` seconds."""
        with self._lock:
            stats = self._ops.setdefault(operation, OperationStats())
            stats.record(elapsed, nbytes)

    def get(self, operation: str) -> OperationStats | None:
        """Return the stats for ``operation`` or ``None`` if never recorded."""
        with self._lock:
            return self._ops.get(operation)

    def operations(self) -> list[str]:
        """Return the names of every operation recorded so far, sorted."""
        with self._lock:
            return sorted(self._ops)

    def __iter__(self) -> Iterator[tuple[str, OperationStats]]:
        with self._lock:
            return iter(list(self._ops.items()))

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Return a JSON-friendly summary used by the benchmark harness."""
        with self._lock:
            return {
                op: {
                    'count': s.count,
                    'total_time': s.total_time,
                    'avg_time': s.avg_time,
                    'min_time': s.min_time if s.count else 0.0,
                    'max_time': s.max_time,
                    'total_bytes': s.total_bytes,
                }
                for op, s in self._ops.items()
            }
