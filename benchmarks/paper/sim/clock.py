"""A virtual clock for charging simulated communication and compute time.

Benchmarks drive real library code but account for wide-area transfer and
service latencies in *virtual seconds* on a :class:`VirtualClock`.  The clock
only ever moves forward.  Scoped accounting (:meth:`VirtualClock.region`)
makes it easy to measure the virtual duration of a sub-operation, which is
what the benchmark harness reports as the paper's round-trip times.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ['VirtualClock']


class VirtualClock:
    """Monotonic virtual clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError('start time must be non-negative')
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        """Return the current virtual time in seconds."""
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative); returns the new time."""
        if seconds < 0:
            raise ValueError(f'cannot advance the clock by {seconds} (< 0) seconds')
        with self._lock:
            self._now += seconds
            return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to ``timestamp`` if it is in the future; returns current time."""
        with self._lock:
            if timestamp > self._now:
                self._now = timestamp
            return self._now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock (used between benchmark repetitions)."""
        if start < 0:
            raise ValueError('start time must be non-negative')
        with self._lock:
            self._now = float(start)

    @contextmanager
    def region(self) -> Iterator['_Region']:
        """Context manager measuring virtual time elapsed inside the block."""
        region = _Region(self)
        region.start = self.now()
        try:
            yield region
        finally:
            region.elapsed = self.now() - region.start

    def __repr__(self) -> str:
        return f'VirtualClock(now={self.now():.6f}s)'


class _Region:
    """Result object produced by :meth:`VirtualClock.region`."""

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self.start = 0.0
        self.elapsed = 0.0
