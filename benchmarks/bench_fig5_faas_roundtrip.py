"""Figure 5: Globus Compute round-trip times with and without ProxyStore.

Regenerates both panels (no-op and 1 s sleep tasks) for the four
client/endpoint placements.  The quick sweep covers 10 B - 10 MB (the cloud
baseline is cut off at its 5 MB payload limit exactly as in the paper);
``REPRO_BENCH_FULL=1`` extends the sweep to 100 MB.
"""
from __future__ import annotations

from benchmarks.conftest import full_sweeps
from benchmarks.conftest import print_table
from benchmarks.paper.figures.fig5 import run_figure5
from benchmarks.paper.sim import size_sweep


def _sizes() -> list[int]:
    return size_sweep(10, 100_000_000 if full_sweeps() else 10_000_000)


def test_fig5_noop_tasks(benchmark):
    table = benchmark.pedantic(
        lambda: run_figure5(task_type='noop', sizes=_sizes()), rounds=1, iterations=1,
    )
    print_table(table)
    # The cloud baseline must be unavailable above the payload limit while
    # every ProxyStore option still handles the largest payloads.
    largest = max(_sizes())
    assert table.value('roundtrip_s', configuration='Theta -> Theta',
                       method='cloud', input_bytes=largest) is None
    assert table.value('roundtrip_s', configuration='Theta -> Theta',
                       method='file-store', input_bytes=largest) is not None


def test_fig5_sleep_tasks(benchmark):
    table = benchmark.pedantic(
        lambda: run_figure5(task_type='sleep', sizes=_sizes()), rounds=1, iterations=1,
    )
    print_table(table)
    # Asynchronous proxy resolution overlaps with the 1 s of compute, so a
    # proxied 1 MB input costs barely more than the no-op floor plus 1 s.
    small = table.value('roundtrip_s', configuration='Midway2 -> Theta',
                        method='endpoint-store', input_bytes=10)
    large = table.value('roundtrip_s', configuration='Midway2 -> Theta',
                        method='endpoint-store', input_bytes=1_000_000)
    assert large - small < 0.75
