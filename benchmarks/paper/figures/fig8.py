"""Figure 8: client get/set latency to a single PS-endpoint.

Measures average per-request wall-clock time against a single (single-worker)
endpoint as the number of concurrent client threads and the payload size grow.
Because the endpoint processes requests serially — as the paper's
single-threaded asyncio implementation does — per-request latency is expected
to scale roughly linearly with the number of concurrent clients.
"""
from __future__ import annotations

import threading
import time
from typing import Sequence

from benchmarks.paper.figures.reporting import ResultTable
from benchmarks.paper.figures.reporting import mean
from benchmarks.paper.sim import payload_of_size
from repro.endpoint import Endpoint
from repro.endpoint import RelayServer

__all__ = ['run_figure8']

DEFAULT_CLIENTS = (1, 2, 4, 8)
DEFAULT_SIZES = (1_000, 10_000, 100_000, 1_000_000)


def _client_worker(
    endpoint: Endpoint,
    operation: str,
    payload: bytes,
    requests: int,
    latencies: list[float],
    lock: threading.Lock,
    client_id: int,
) -> None:
    local: list[float] = []
    for i in range(requests):
        object_id = f'fig8-{client_id}-{i}'
        start = time.perf_counter()
        if operation == 'set':
            endpoint.set(object_id, payload)
        else:
            endpoint.get('fig8-shared')
        local.append(time.perf_counter() - start)
    with lock:
        latencies.extend(local)


def run_figure8(
    *,
    client_counts: Sequence[int] = DEFAULT_CLIENTS,
    payload_sizes: Sequence[int] = DEFAULT_SIZES,
    requests_per_client: int = 25,
) -> ResultTable:
    """Measure average request time vs. concurrency and payload size."""
    table = ResultTable(
        title='Figure 8: client request times to a single PS-endpoint',
        columns=['operation', 'payload_bytes', 'clients', 'avg_time_ms'],
    )
    table.add_note(f'{requests_per_client} requests per client, real wall-clock time')
    relay = RelayServer()
    for operation in ('get', 'set'):
        for size in payload_sizes:
            payload = payload_of_size(size)
            for n_clients in client_counts:
                with Endpoint(f'fig8-{operation}-{size}-{n_clients}', relay) as endpoint:
                    endpoint.set('fig8-shared', payload)
                    latencies: list[float] = []
                    lock = threading.Lock()
                    threads = [
                        threading.Thread(
                            target=_client_worker,
                            args=(endpoint, operation, payload, requests_per_client,
                                  latencies, lock, i),
                        )
                        for i in range(n_clients)
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join()
                table.add_row(
                    operation=operation,
                    payload_bytes=size,
                    clients=n_clients,
                    avg_time_ms=mean(latencies) * 1000.0,
                )
    return table
