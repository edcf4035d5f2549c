"""A small, thread-safe LRU cache.

The :class:`~repro.store.Store` caches *deserialized* objects keyed by
connector key so that repeatedly resolving proxies of the same object in one
process performs neither communication nor deserialization (Section 3.5 of
the paper).  The cache is deliberately simple: a bounded ordered dict with a
lock, plus hit/miss statistics used by the Store metrics and the ablation
benchmarks.

Alongside the entry bound, an optional ``max_bytes`` bound caps the
*resident bytes* of cached values (sizes are estimated with a best-effort
:func:`estimate_nbytes`).  An individual value larger than ``max_bytes`` is
simply not cached — a multi-GB proxy resolution cannot silently evict the
entire working set.
"""
from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any
from typing import Hashable
from typing import Iterator

__all__ = ['LRUCache', 'CacheStats', 'estimate_nbytes']

_MISSING = object()


def estimate_nbytes(value: Any) -> int:
    """Best-effort resident size of a cached value in bytes.

    Buffer-like objects report their true payload size (``nbytes``/``len``);
    everything else falls back to ``sys.getsizeof`` — shallow, but cheap and
    monotone enough to bound a cache.
    """
    nbytes = getattr(value, 'nbytes', None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    try:
        return sys.getsizeof(value)
    except TypeError:  # pragma: no cover - exotic objects
        return 0


@dataclass
class CacheStats:
    """Counters describing cache effectiveness."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups: hits plus misses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from the cache (0.0 when unused)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class LRUCache:
    """Least-recently-used cache bounded by entries and (optionally) bytes.

    Args:
        maxsize: maximum number of entries; ``0`` disables caching entirely
            (every lookup misses) while keeping the same interface.
        max_bytes: optional bound on total estimated resident bytes.  Values
            individually larger than the bound are not cached at all rather
            than evicting everything else.
    """

    def __init__(
        self,
        maxsize: int = 16,
        *,
        max_bytes: int | None = None,
    ) -> None:
        if maxsize < 0:
            raise ValueError('maxsize must be non-negative')
        if max_bytes is not None and max_bytes < 0:
            raise ValueError('max_bytes must be non-negative')
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._resident_bytes = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    @property
    def resident_bytes(self) -> int:
        """Estimated bytes currently held by cached values."""
        with self._lock:
            return self._resident_bytes

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value for ``key`` or ``default``; counts a hit/miss."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def exists(self, key: Hashable) -> bool:
        """Return ``True`` if ``key`` is cached (does not update recency/stats)."""
        with self._lock:
            return key in self._data

    def _drop(self, key: Hashable) -> None:
        self._data.pop(key, None)
        self._resident_bytes -= self._sizes.pop(key, 0)

    def set(self, key: Hashable, value: Any) -> None:
        """Insert or update ``key``; evicts least recently used entries while
        either bound (entries or bytes) is exceeded."""
        if self.maxsize == 0:
            return
        size = estimate_nbytes(value)
        with self._lock:
            if self.max_bytes is not None and size > self.max_bytes:
                # Caching this value would evict the whole working set;
                # leave the cache as-is (and drop any stale entry).
                self._drop(key)
                return
            if key in self._data:
                self._data.move_to_end(key)
                self._resident_bytes -= self._sizes.get(key, 0)
            self._data[key] = value
            self._sizes[key] = size
            self._resident_bytes += size
            while len(self._data) > self.maxsize or (
                self.max_bytes is not None
                and self._resident_bytes > self.max_bytes
                and len(self._data) > 1
            ):
                evicted_key, _ = self._data.popitem(last=False)
                self._resident_bytes -= self._sizes.pop(evicted_key, 0)
                self.stats.evictions += 1

    def evict(self, key: Hashable) -> bool:
        """Remove ``key`` from the cache; returns whether it was present."""
        with self._lock:
            present = key in self._data
            if present:
                self._drop(key)
            return present

    def clear(self) -> None:
        """Remove every cached entry (statistics are preserved)."""
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self._resident_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: object) -> bool:
        return self.exists(key)

    def __iter__(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._data.keys()))
