"""Tests of the virtual clock."""
from __future__ import annotations

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchmarks.paper.sim import VirtualClock


def test_clock_starts_at_zero_by_default():
    assert VirtualClock().now() == 0.0


def test_clock_custom_start():
    assert VirtualClock(5.0).now() == 5.0


def test_clock_rejects_negative_start():
    with pytest.raises(ValueError):
        VirtualClock(-1.0)


def test_advance_moves_forward():
    clock = VirtualClock()
    assert clock.advance(1.5) == 1.5
    assert clock.advance(0.5) == 2.0
    assert clock.now() == 2.0


def test_advance_rejects_negative():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_advance_to_only_moves_forward():
    clock = VirtualClock()
    clock.advance_to(3.0)
    assert clock.now() == 3.0
    clock.advance_to(1.0)  # in the past: no-op
    assert clock.now() == 3.0


def test_reset():
    clock = VirtualClock()
    clock.advance(10)
    clock.reset()
    assert clock.now() == 0.0
    with pytest.raises(ValueError):
        clock.reset(-1)


def test_region_measures_elapsed_virtual_time():
    clock = VirtualClock()
    with clock.region() as region:
        clock.advance(2.0)
        clock.advance(0.25)
    assert region.elapsed == pytest.approx(2.25)
    assert region.start == 0.0


def test_concurrent_advances_accumulate():
    clock = VirtualClock()

    def worker():
        for _ in range(1000):
            clock.advance(0.001)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert clock.now() == pytest.approx(4.0, rel=1e-6)


@given(steps=st.lists(st.floats(0, 1e6, allow_nan=False), max_size=50))
def test_clock_is_monotonic_property(steps):
    clock = VirtualClock()
    previous = clock.now()
    for step in steps:
        clock.advance(step)
        assert clock.now() >= previous
        previous = clock.now()
