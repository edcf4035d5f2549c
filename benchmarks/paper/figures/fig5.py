"""Figure 5: round-trip Globus Compute task times with and without ProxyStore.

The experiment sweeps task input sizes for no-op and 1-second-sleep tasks over
four client/endpoint placements, comparing data movement through the FaaS
cloud service against ProxyStore's FileStore, RedisStore, EndpointStore and
GlobusStore, plus an IPFS baseline for the inter-site cases.  Round-trip times
are virtual seconds accumulated on the simulated testbed while the real task
submission, proxy creation and proxy resolution code paths execute.
"""
from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Sequence

from benchmarks.paper.baselines.ipfs import IPFSNetwork
from benchmarks.paper.baselines.ipfs import IPFSNode
from benchmarks.paper.faas import DEFAULT_PAYLOAD_LIMIT_BYTES
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
from benchmarks.paper.sim.costs import EndpointPeerCost
from benchmarks.paper.sim.costs import GlobusTransferCost
from benchmarks.paper.sim.costs import IPFSCost
from benchmarks.paper.sim.costs import SharedFilesystemCost
from benchmarks.paper.sim.costs import TransferCostModel
from repro.proxy import Proxy
from repro.store import Store

__all__ = ['SiteConfiguration', 'FIG5_CONFIGURATIONS', 'run_figure5']


@dataclass(frozen=True)
class SiteConfiguration:
    """One client/endpoint placement of Figure 5."""

    label: str
    client_host: str
    endpoint_host: str
    intra_site: bool


FIG5_CONFIGURATIONS: tuple[SiteConfiguration, ...] = (
    SiteConfiguration('Theta -> Theta', 'theta-login', 'theta-compute', True),
    SiteConfiguration('Perlmutter Login -> Perlmutter Compute',
                      'perlmutter-login', 'perlmutter-compute', True),
    SiteConfiguration('Midway2 -> Theta', 'midway2-login', 'theta-compute', False),
    SiteConfiguration('Frontera -> Theta', 'frontera-login', 'theta-compute', False),
)

_INTRA_METHODS = ('cloud', 'file-store', 'redis-store', 'endpoint-store')
_INTER_METHODS = ('cloud', 'ipfs', 'endpoint-store', 'globus-store')


def _sleep_task(data, ctx=None):
    """1 s sleep task overlapping the proxy resolution with the sleep."""
    if ctx is not None:
        if isinstance(data, Proxy):
            ctx.compute_with_async_resolve(data, 1.0)
        else:
            ctx.sleep(1.0)
    return len(data)


def _cost_model_for(method: str, fabric, config: SiteConfiguration) -> TransferCostModel:
    if method == 'file-store':
        return SharedFilesystemCost(fabric)
    if method == 'redis-store':
        return CentralServerCost(fabric, server_host=config.client_host)
    if method == 'endpoint-store':
        return EndpointPeerCost(fabric)
    if method == 'globus-store':
        return GlobusTransferCost(fabric)
    raise ValueError(f'no cost model for method {method!r}')


def _measure_cell(
    config: SiteConfiguration,
    method: str,
    size: int,
    task_type: str,
    workdir: str,
) -> float | None:
    """Virtual round-trip seconds for one (configuration, method, size) cell."""
    fabric = paper_testbed()
    clock = VirtualClock()
    executor = single_endpoint_executor(
        'fig5-endpoint', config.endpoint_host, config.client_host, clock, fabric,
    )
    task = noop_task if task_type == 'noop' else _sleep_task
    payload = payload_of_size(size)
    start = clock.now()

    if method == 'cloud':
        with on_host(config.client_host):
            try:
                future = executor.submit(task, payload)
            except PayloadTooLargeError:
                return None
            future.result()
        return clock.now() - start

    if method == 'ipfs':
        network = IPFSNetwork()
        client_node = IPFSNode(f'{workdir}/ipfs-client', network)
        endpoint_node = IPFSNode(f'{workdir}/ipfs-endpoint', network)
        cost = IPFSCost(fabric)

        def ipfs_task(cid, ctx=None):
            # Retrieve the file from the peer network, then read it back.
            ctx.clock.advance(
                cost.get_cost(size, config.client_host, config.endpoint_host),
            )
            data = endpoint_node.get(cid)
            if task_type == 'sleep':
                ctx.sleep(1.0)  # IPFS offers no asynchronous-resolution overlap
            return len(data)

        with on_host(config.client_host):
            cid = client_node.add(payload)
            clock.advance(cost.put_cost(size, config.client_host))
            future = executor.submit(ipfs_task, cid)
            future.result()
        return clock.now() - start

    # ProxyStore methods: a Store over a cost-accounted connector.  The
    # channel choice is a URL; the harness only interposes cost accounting.
    model = _cost_model_for(method, fabric, config)
    if method == 'file-store':
        store_url = f'file://{workdir}/file-store?cache_size=0'
    else:
        store_url = 'local://?cache_size=0'
    store = Store.from_url(
        store_url,
        name=f'fig5-{method}-{config.label}-{size}-{task_type}',
        wrap_connector=lambda inner: CostedConnector(inner, model, clock),
    )
    try:
        with on_host(config.client_host):
            proxy = store.proxy(payload, cache_local=False)
            future = executor.submit(task, proxy)
            future.result()
        return clock.now() - start
    finally:
        store.close(clear=True)


def run_figure5(
    *,
    task_type: str = 'noop',
    sizes: Sequence[int] | None = None,
    configurations: Sequence[SiteConfiguration] = FIG5_CONFIGURATIONS,
    workdir: str | None = None,
) -> ResultTable:
    """Run the Figure 5 sweep and return one row per (config, method, size)."""
    if task_type not in ('noop', 'sleep'):
        raise ValueError("task_type must be 'noop' or 'sleep'")
    sizes = list(sizes) if sizes is not None else size_sweep(10, 10_000_000)
    table = ResultTable(
        title=f'Figure 5: Globus Compute round-trip time ({task_type} tasks)',
        columns=['configuration', 'method', 'input_bytes', 'roundtrip_s'],
    )
    table.add_note(f'payload limit for cloud transfer: {DEFAULT_PAYLOAD_LIMIT_BYTES} bytes')
    table.add_note('times are virtual seconds on the simulated testbed fabric')
    with tempfile.TemporaryDirectory() as tmp:
        base = workdir or tmp
        for config in configurations:
            methods = _INTRA_METHODS if config.intra_site else _INTER_METHODS
            for method in methods:
                for size in sizes:
                    cell_dir = f'{base}/{config.label.replace(" ", "")}-{method}-{size}'
                    roundtrip = _measure_cell(config, method, size, task_type, cell_dir)
                    table.add_row(
                        configuration=config.label,
                        method=method,
                        input_bytes=size,
                        roundtrip_s=roundtrip,
                    )
    return table
