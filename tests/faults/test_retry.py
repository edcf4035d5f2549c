"""Tests for the shared jittered-backoff retry policy."""
from __future__ import annotations

import random
import time

import pytest

from repro.faults import DEFAULT_RECONNECT_POLICY
from repro.faults import RetryPolicy


def test_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


def test_delay_exponential_and_capped():
    policy = RetryPolicy(
        max_attempts=10, base_delay=0.1, max_delay=0.4,
        multiplier=2.0, jitter=0.0,
    )
    assert policy.delay(0) == pytest.approx(0.1)
    assert policy.delay(1) == pytest.approx(0.2)
    assert policy.delay(2) == pytest.approx(0.4)
    assert policy.delay(5) == pytest.approx(0.4)  # capped


def test_jitter_is_bounded_and_seed_reproducible():
    policy = RetryPolicy(max_attempts=6, base_delay=0.1, jitter=0.5)
    rng_a, rng_b = random.Random(7), random.Random(7)
    schedule_a = [policy.delay(n, rng_a) for n in range(policy.max_attempts - 1)]
    schedule_b = [policy.delay(n, rng_b) for n in range(policy.max_attempts - 1)]
    assert schedule_a == schedule_b  # same seed, same schedule
    for attempt, delay in enumerate(schedule_a):
        nominal = min(0.1 * (2.0 ** attempt), policy.max_delay)
        assert 0.5 * nominal <= delay <= 1.5 * nominal


def test_zero_base_delay_retries_immediately():
    policy = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)
    start = time.monotonic()
    assert list(policy.attempts()) == [0, 1, 2, 3]
    assert time.monotonic() - start < 0.05


def test_attempts_loop_shape():
    policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
    tries = 0
    for _attempt in policy.attempts():
        tries += 1
    assert tries == 3


def test_shared_policies_are_frozen():
    with pytest.raises(AttributeError):
        DEFAULT_RECONNECT_POLICY.max_attempts = 1  # type: ignore[misc]
