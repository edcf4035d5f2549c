"""Figure 8: get/set latency to one PS-endpoint vs concurrent clients and payload size."""
from __future__ import annotations

from benchmarks.conftest import full_sweeps
from benchmarks.conftest import print_table
from benchmarks.paper.figures.fig8 import run_figure8


def test_fig8_endpoint_client_scaling(benchmark):
    clients = (1, 2, 4, 8, 16, 32) if full_sweeps() else (1, 2, 4, 8)
    sizes = (1_000, 10_000, 100_000, 1_000_000, 10_000_000) if full_sweeps() else (1_000, 100_000, 1_000_000)
    table = benchmark.pedantic(
        lambda: run_figure8(client_counts=clients, payload_sizes=sizes, requests_per_client=25),
        rounds=1, iterations=1,
    )
    print_table(table)
    # The single-worker endpoint serializes requests, so per-request latency
    # grows with the number of concurrent clients (Figure 8).
    for operation in ('get', 'set'):
        one = table.value('avg_time_ms', operation=operation,
                          payload_bytes=max(sizes), clients=min(clients))
        many = table.value('avg_time_ms', operation=operation,
                           payload_bytes=max(sizes), clients=max(clients))
        assert many > one
