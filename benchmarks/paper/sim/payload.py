"""Synthetic payload generation for benchmarks.

The paper's component benchmarks sweep payload sizes from 10 bytes to 100 MB
(and to 1 GB for the distributed in-memory stores).  These helpers create
payloads of exact serialized sizes and the logarithmic size sweeps used by
every benchmark harness.
"""
from __future__ import annotations

import numpy as np

__all__ = ['payload_of_size', 'size_sweep', 'human_size']


def payload_of_size(nbytes: int, *, seed: int = 0) -> bytes:
    """Return a ``bytes`` payload of exactly ``nbytes`` pseudo-random bytes.

    Pseudo-random (rather than constant) content avoids accidentally
    benefitting from compression anywhere in a transport stack.
    """
    if nbytes < 0:
        raise ValueError('nbytes must be non-negative')
    if nbytes == 0:
        return b''
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


def size_sweep(start_bytes: int = 10, stop_bytes: int = 100_000_000, *, per_decade: int = 1) -> list[int]:
    """Return a logarithmic sweep of payload sizes from ``start`` to ``stop`` inclusive.

    Args:
        start_bytes: smallest payload size.
        stop_bytes: largest payload size.
        per_decade: number of points per factor-of-ten (1 gives decade steps).
    """
    if start_bytes <= 0 or stop_bytes < start_bytes:
        raise ValueError('invalid sweep bounds')
    sizes: list[int] = []
    exponent = np.log10(start_bytes)
    stop_exp = np.log10(stop_bytes)
    step = 1.0 / per_decade
    while exponent <= stop_exp + 1e-9:
        sizes.append(int(round(10 ** exponent)))
        exponent += step
    if sizes[-1] != stop_bytes:
        sizes.append(stop_bytes)
    # Deduplicate while preserving order (rounding can collide for tiny sizes).
    seen: set[int] = set()
    unique = []
    for s in sizes:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return unique


def human_size(nbytes: int) -> str:
    """Format ``nbytes`` using the units the paper's figures use (B, KB, MB, GB)."""
    units = ['B', 'KB', 'MB', 'GB', 'TB']
    value = float(nbytes)
    for unit in units:
        if value < 1000 or unit == units[-1]:
            if value == int(value):
                return f'{int(value)} {unit}'
            return f'{value:.1f} {unit}'
        value /= 1000
    raise AssertionError('unreachable')
