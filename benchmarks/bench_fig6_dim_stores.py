"""Figure 6: distributed in-memory stores versus DataSpaces and cloud transfer."""
from __future__ import annotations

from benchmarks.conftest import full_sweeps
from benchmarks.conftest import print_table
from benchmarks.paper.figures.fig6 import run_figure6
from benchmarks.paper.sim import size_sweep


def _sizes() -> list[int]:
    return size_sweep(1, 1_000_000_000 if full_sweeps() else 100_000_000)


def test_fig6_distributed_memory_stores(benchmark):
    table = benchmark.pedantic(lambda: run_figure6(sizes=_sizes()), rounds=1, iterations=1)
    print_table(table)
    largest = max(_sizes())
    polaris = 'Polaris Login -> Polaris Compute'
    chameleon = 'Chameleon Node -> Chameleon Node'
    margo = table.value('roundtrip_s', system=polaris, method='margo-store', input_bytes=largest)
    ucx_polaris = table.value('roundtrip_s', system=polaris, method='ucx-store', input_bytes=largest)
    zmq = table.value('roundtrip_s', system=polaris, method='zmq-store', input_bytes=largest)
    dataspaces = table.value('roundtrip_s', system=polaris, method='dataspaces', input_bytes=largest)
    # MargoStore achieves the best overall performance on Polaris and beats
    # DataSpaces on both systems (Section 5.1).
    assert margo <= ucx_polaris <= zmq
    assert margo < dataspaces
    ucx_chameleon = table.value('roundtrip_s', system=chameleon, method='ucx-store', input_bytes=largest)
    margo_chameleon = table.value('roundtrip_s', system=chameleon, method='margo-store', input_bytes=largest)
    redis_chameleon = table.value('roundtrip_s', system=chameleon, method='redis-store', input_bytes=largest)
    # UCXStore performs measurably worse than MargoStore and RedisStore for
    # larger sizes on Chameleon.
    assert ucx_chameleon > margo_chameleon
    assert ucx_chameleon > redis_chameleon
