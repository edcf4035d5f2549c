"""Tests of payload generation helpers."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchmarks.paper.sim import payload_of_size
from benchmarks.paper.sim import size_sweep
from benchmarks.paper.sim.payload import human_size


def test_payload_exact_size():
    for size in (0, 1, 10, 1024, 100_000):
        assert len(payload_of_size(size)) == size


def test_payload_rejects_negative():
    with pytest.raises(ValueError):
        payload_of_size(-1)


def test_payload_deterministic_per_seed():
    assert payload_of_size(64, seed=1) == payload_of_size(64, seed=1)
    assert payload_of_size(64, seed=1) != payload_of_size(64, seed=2)


def test_size_sweep_decades():
    sweep = size_sweep(10, 100_000)
    assert sweep == [10, 100, 1000, 10_000, 100_000]


def test_size_sweep_includes_endpoints():
    sweep = size_sweep(10, 5_000)
    assert sweep[0] == 10
    assert sweep[-1] == 5_000


def test_size_sweep_per_decade_points():
    sweep = size_sweep(10, 1000, per_decade=2)
    assert len(sweep) > 3
    assert sorted(sweep) == sweep


def test_size_sweep_invalid_bounds():
    with pytest.raises(ValueError):
        size_sweep(0, 100)
    with pytest.raises(ValueError):
        size_sweep(1000, 10)


def test_human_size():
    assert human_size(10) == '10 B'
    assert human_size(1000) == '1 KB'
    assert human_size(1_500_000) == '1.5 MB'
    assert human_size(100_000_000) == '100 MB'
    assert human_size(1_000_000_000) == '1 GB'


@given(size=st.integers(0, 10_000))
def test_payload_size_property(size):
    assert len(payload_of_size(size)) == size
