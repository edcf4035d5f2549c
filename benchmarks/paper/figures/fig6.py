"""Figure 6: distributed in-memory stores versus DataSpaces and cloud transfer.

No-op Globus Compute tasks on Polaris (HPE Slingshot) and on two Chameleon
Cloud nodes (Mellanox 40 GbE), moving inputs via the cloud baseline, a central
RedisStore, the distributed in-memory MargoStore/UCXStore/ZMQStore, and the
DataSpaces staging abstraction.  Transport efficiencies differ per system to
reflect the hardware: RDMA stacks drive the Slingshot network at full rate,
while UCX underperforms on the commodity NIC and ZMQ/TCP trails both — the
behaviours the paper reports.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from benchmarks.paper.baselines.dataspaces import DataSpacesClient
from benchmarks.paper.baselines.dataspaces import DataSpacesServer
from benchmarks.paper.faas import PayloadTooLargeError
from benchmarks.paper.faas import noop_task
from benchmarks.paper.faas import single_endpoint_executor
from benchmarks.paper.figures.reporting import ResultTable
from benchmarks.paper.sim import VirtualClock
from benchmarks.paper.sim import paper_testbed
from benchmarks.paper.sim import payload_of_size
from benchmarks.paper.sim import size_sweep
from benchmarks.paper.sim.context import on_host
from benchmarks.paper.sim.costed import CostedConnector
from benchmarks.paper.sim.costs import CentralServerCost
from benchmarks.paper.sim.costs import DataSpacesCost
from benchmarks.paper.sim.costs import DistributedMemoryCost
from repro.store import Store

__all__ = ['Fig6System', 'FIG6_SYSTEMS', 'run_figure6']


@dataclass(frozen=True)
class Fig6System:
    """One hardware platform of Figure 6."""

    label: str
    client_host: str
    endpoint_host: str
    #: Transport efficiency of each store on this platform's network.
    efficiencies: tuple[tuple[str, float], ...]


FIG6_SYSTEMS: tuple[Fig6System, ...] = (
    Fig6System(
        'Polaris Login -> Polaris Compute',
        'polaris-login', 'polaris-compute',
        efficiencies=(('margo-store', 1.0), ('ucx-store', 0.95), ('zmq-store', 0.45)),
    ),
    Fig6System(
        'Chameleon Node -> Chameleon Node',
        'chameleon-node-a', 'chameleon-node-b',
        efficiencies=(('margo-store', 0.95), ('ucx-store', 0.5), ('zmq-store', 0.4)),
    ),
)

_METHODS = ('cloud', 'redis-store', 'margo-store', 'ucx-store', 'zmq-store', 'dataspaces')


def _measure_cell(system: Fig6System, method: str, size: int) -> float | None:
    fabric = paper_testbed()
    clock = VirtualClock()
    executor = single_endpoint_executor(
        'fig6-endpoint', system.endpoint_host, system.client_host, clock, fabric,
    )
    payload = payload_of_size(size)
    start = clock.now()

    if method == 'cloud':
        with on_host(system.client_host):
            try:
                future = executor.submit(noop_task, payload)
            except PayloadTooLargeError:
                return None
            future.result()
        return clock.now() - start

    if method == 'dataspaces':
        server = DataSpacesServer()
        client = DataSpacesClient(server)
        cost = DataSpacesCost(fabric)

        def dataspaces_task(name, version, ctx=None):
            ctx.clock.advance(cost.get_cost(size, system.client_host, system.endpoint_host))
            data = DataSpacesClient(server).get(name, version)
            return len(data)

        with on_host(system.client_host):
            client.put('task-input', 0, payload)
            clock.advance(cost.put_cost(size, system.client_host))
            future = executor.submit(dataspaces_task, 'task-input', 0)
            future.result()
        return clock.now() - start

    if method == 'redis-store':
        model = CentralServerCost(fabric, server_host=system.client_host)
    else:
        efficiency = dict(system.efficiencies)[method]
        model = DistributedMemoryCost(
            fabric, software_efficiency=efficiency, startup_overhead_s=0.1,
        )
    store = Store.from_url(
        'local://?cache_size=0',
        name=f'fig6-{method}-{system.label}-{size}',
        wrap_connector=lambda inner: CostedConnector(inner, model, clock),
    )
    try:
        with on_host(system.client_host):
            proxy = store.proxy(payload, cache_local=False)
            future = executor.submit(noop_task, proxy)
            future.result()
        return clock.now() - start
    finally:
        store.close(clear=True)


def run_figure6(
    *,
    sizes: Sequence[int] | None = None,
    systems: Sequence[Fig6System] = FIG6_SYSTEMS,
) -> ResultTable:
    """Run the Figure 6 sweep and return one row per (system, method, size)."""
    sizes = list(sizes) if sizes is not None else size_sweep(1, 100_000_000)
    table = ResultTable(
        title='Figure 6: no-op round-trip with distributed in-memory stores',
        columns=['system', 'method', 'input_bytes', 'roundtrip_s'],
    )
    table.add_note('times are virtual seconds on the simulated testbed fabric')
    table.add_note(
        'real-wire transport concurrency (pipelining, batched commands, '
        'sharded transfers) is measured separately by '
        'benchmarks/bench_kv_transport.py -> BENCH_kv.json',
    )
    for system in systems:
        for method in _METHODS:
            for size in sizes:
                table.add_row(
                    system=system.label,
                    method=method,
                    input_bytes=size,
                    roundtrip_s=_measure_cell(system, method, size),
                )
    return table
