"""Offloading FaaS task data with proxies (Listing 2 / Figure 5 of the paper).

A client on a login node submits tasks to a compute endpoint through the
simulated Globus-Compute-like cloud service.  Passing the 8 MB input directly
is rejected by the service's 5 MB payload limit; passing a proxy of it works
and moves the data over the shared file system instead of through the cloud.

The FaaS substrate and the virtual-time testbed are paper scaffolding
(``benchmarks/paper``), not part of ``repro``, so run from the repository
root with it on the path::

    PYTHONPATH=src:. python examples/faas_offload.py
"""
from __future__ import annotations

import tempfile

import numpy as np

from benchmarks.paper.faas import CloudFaaSService
from benchmarks.paper.faas import ComputeEndpoint
from benchmarks.paper.faas import Executor
from benchmarks.paper.faas import PayloadTooLargeError
from benchmarks.paper.sim import VirtualClock
from benchmarks.paper.sim import paper_testbed
from benchmarks.paper.sim.context import on_host
from benchmarks.paper.sim.costed import CostedConnector
from benchmarks.paper.sim.costs import SharedFilesystemCost
from repro import store_from_url
from repro.proxy import Proxy


def analyze(data, ctx=None) -> float:
    """The task: compute a statistic of a (possibly proxied) array."""
    if ctx is not None and isinstance(data, Proxy):
        ctx.resolve_proxy(data)          # charge the data movement
    array = np.frombuffer(bytes(data), dtype=np.uint8)
    return float(array.mean())


def main() -> None:
    fabric = paper_testbed()
    clock = VirtualClock()
    cloud = CloudFaaSService(fabric, clock)
    endpoint = ComputeEndpoint('theta-endpoint', 'theta-compute', clock, fabric)
    cloud.register_endpoint(endpoint)
    executor = Executor(cloud, 'theta-endpoint', client_host='theta-login')

    payload = np.random.default_rng(0).integers(0, 256, size=8_000_000, dtype=np.uint8).tobytes()

    with on_host('theta-login'):
        print('--- without ProxyStore ---')
        try:
            executor.submit(analyze, payload)
        except PayloadTooLargeError as e:
            print(f'rejected by the cloud service: {e}')

        print('--- with ProxyStore (two extra lines of client code) ---')
        with tempfile.TemporaryDirectory() as tmp:
            # The channel is a URL; the simulation only wraps it with
            # virtual-time cost accounting.
            store = store_from_url(
                f'file://{tmp}?name=faas-offload-store',
                wrap_connector=lambda inner: CostedConnector(
                    inner, SharedFilesystemCost(fabric), clock,
                ),
            )
            data = store.proxy(payload, cache_local=False)
            start = clock.now()
            future = executor.submit(analyze, data)
            result = future.result()
            print(f'task result: {result:.2f}')
            print(f'virtual round-trip time: {clock.now() - start:.3f} s '
                  '(data moved via the shared file system, not the cloud)')
            store.close(clear=True)


if __name__ == '__main__':
    main()
