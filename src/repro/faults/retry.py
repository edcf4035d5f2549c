"""Shared retry policy: jittered exponential backoff.

The broker owner walk that every routed publish, coordinator command
and subscription shares (``PartitionRouter.first_live``) iterates a
:class:`RetryPolicy`, and the workflow engine's transient-fault
resubmission takes its delays from one, so backoff behaviour (growth
rate, cap, jitter) is tuned in exactly one place.  The SimKV client's
stale-connection retry is not a policy: ``KVClient._request`` makes at
most ``pool_size + 1`` immediate attempts, cycling through the pool.

The jitter is *full-spread around the nominal delay*: attempt ``n``
sleeps ``base * multiplier**n`` (capped at ``max_delay``), scaled by a
uniform factor in ``[1 - jitter, 1 + jitter]``.  Jitter decorrelates
retry storms when many clients lose the same broker at once; a seeded
:class:`random.Random` makes the schedule reproducible in tests.
"""
from __future__ import annotations

import random
import time
from collections.abc import Iterator
from dataclasses import dataclass

#: Process-wide rng used when a policy call does not supply one.
_GLOBAL_RNG = random.Random()


@dataclass(frozen=True)
class RetryPolicy:
    """An immutable jittered-exponential-backoff schedule.

    ``max_attempts`` bounds the *total* number of tries (so a policy with
    ``max_attempts=1`` never retries).  ``delay(n)`` is the sleep taken
    *after* failed attempt ``n`` (0-based); with ``base_delay=0`` the
    policy retries immediately, which is what pipelined clients cycling
    to a fresh pooled connection want.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        """Validate the schedule parameters."""
        if self.max_attempts < 1:
            raise ValueError('max_attempts must be >= 1')
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError('delays must be >= 0')
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError('jitter must be in [0, 1]')

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Return the backoff delay (seconds) after failed attempt ``attempt``."""
        nominal = min(self.base_delay * (self.multiplier ** attempt), self.max_delay)
        if nominal <= 0.0 or self.jitter == 0.0:
            return nominal
        rng = rng if rng is not None else _GLOBAL_RNG
        spread = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return nominal * spread

    def attempts(self, rng: random.Random | None = None) -> Iterator[int]:
        """Yield attempt indices ``0..max_attempts-1``, sleeping in between.

        The canonical retry loop::

            for attempt in policy.attempts():
                try:
                    return do_thing()
                except TransientError:
                    continue
            raise

        The backoff sleep happens lazily *before* yielding each retry, so
        a loop that succeeds (breaks/returns) on attempt ``n`` never pays
        the delay for attempt ``n + 1``.
        """
        for attempt in range(self.max_attempts):
            if attempt:
                pause = self.delay(attempt - 1, rng)
                if pause > 0.0:
                    time.sleep(pause)
            yield attempt


#: Default policy for broker reconnect/failover paths: ~6 attempts spanning
#: roughly 1.5 s of nominal backoff — long enough to ride out a broker
#: restart, short enough that failover to a replica is quick.
DEFAULT_RECONNECT_POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.05, max_delay=0.5, jitter=0.5,
)
