"""Figure 11: molecular design node utilization with and without ProxyStore."""
from __future__ import annotations

from benchmarks.conftest import print_table
from benchmarks.paper.figures.fig11 import run_figure11


def test_fig11_molecular_design_utilization(benchmark):
    node_counts = (128, 256, 512, 1024)
    table = benchmark.pedantic(lambda: run_figure11(node_counts=node_counts), rounds=1, iterations=1)
    print_table(table)
    # Baseline utilization degrades as CPU nodes are added because the
    # workflow system's serial result handling cannot keep up; ProxyStore
    # restores near-ideal scaling (Figure 11).
    base_512 = table.value('cpu_utilization', cpu_nodes=512, configuration='baseline')
    base_1024 = table.value('cpu_utilization', cpu_nodes=1024, configuration='baseline')
    proxy_512 = table.value('cpu_utilization', cpu_nodes=512, configuration='proxystore')
    proxy_1024 = table.value('cpu_utilization', cpu_nodes=1024, configuration='proxystore')
    assert base_1024 < base_512 < 1.0
    assert proxy_512 > 0.95 and proxy_1024 > 0.95
    assert proxy_512 - base_512 > 0.15      # paper: +29 % at 512 nodes
    assert proxy_1024 - base_1024 > 0.35    # paper: +43 % at 1024 nodes
    # GPU utilization also improves with ProxyStore.
    assert (table.value('gpu_utilization', cpu_nodes=1024, configuration='proxystore')
            > table.value('gpu_utilization', cpu_nodes=1024, configuration='baseline'))
