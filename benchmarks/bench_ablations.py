"""Ablations: component-level costs of the design choices in docs/ARCHITECTURE.md."""
from __future__ import annotations

from benchmarks.conftest import print_table
from benchmarks.paper.figures.ablations import run_ablations


def test_ablations(benchmark):
    table = benchmark.pedantic(run_ablations, rounds=1, iterations=1)
    print_table(table)
    # Caching removes repeated deserialization cost.
    cached = table.value('seconds', ablation='deserialization-cache', variant='cache-enabled')
    uncached = table.value('seconds', ablation='deserialization-cache', variant='cache-disabled')
    assert cached < uncached
    # Evict-on-resolve leaves no objects behind.
    assert table.value('seconds', ablation='evict-flag', variant='evict-on-resolve') == 0.0
    assert table.value('seconds', ablation='evict-flag', variant='keep') > 0.0
    # Proxy access is slower than direct access but within a small factor.
    direct = table.value('seconds', ablation='proxy-overhead', variant='direct-access')
    proxied = table.value('seconds', ablation='proxy-overhead', variant='via-proxy')
    assert proxied > direct
