"""End-to-end integration tests combining several subsystems.

These scenarios mirror how the paper composes the pieces: proxies created by
one component are consumed by another (FaaS tasks, workflow tasks, peer
endpoints), stores are reconstructed from configs embedded in factories, and
MultiConnector policies steer different objects over different channels.
"""
from __future__ import annotations

import pickle

import numpy as np
import pytest

from benchmarks.paper.faas import CloudFaaSService
from benchmarks.paper.faas import ComputeEndpoint
from benchmarks.paper.faas import Executor
from benchmarks.paper.sim import VirtualClock
from benchmarks.paper.sim import paper_testbed
from benchmarks.paper.sim.context import on_host
from benchmarks.paper.sim.costed import CostedConnector
from benchmarks.paper.sim.costs import SharedFilesystemCost
from repro.connectors.endpoint import EndpointConnector
from repro.connectors.endpoint import set_local_endpoint
from repro.connectors.file import FileConnector
from repro.connectors.local import LocalConnector
from repro.connectors.multi import MultiConnector
from repro.connectors.policy import Policy
from repro.connectors.redis import RedisConnector
from repro.endpoint import Endpoint
from repro.endpoint import RelayServer
from repro.endpoint import reset_endpoint_registry
from repro.proxy import Proxy
from repro.proxy import extract
from repro.proxy import get_factory
from repro.proxy import is_resolved
from repro.store import Store
from repro.store import get_store
from repro.store import unregister_store
from repro.workflow import ColmenaQueues
from repro.workflow import TaskServer
from repro.workflow import Thinker
from repro.workflow import WorkflowEngine


@pytest.fixture(autouse=True)
def _clean_endpoints():
    yield
    set_local_endpoint(None)
    reset_endpoint_registry()


def _norm(data, ctx=None):
    """A task usable by both the FaaS and workflow substrates."""
    return float(np.linalg.norm(np.asarray(data)))


def test_proxy_created_by_store_consumed_by_workflow_task(tmp_path):
    """Producer proxies data via a FileStore; a workflow task consumes it."""
    store = Store('integration-file-store', FileConnector(str(tmp_path / 'd')))
    try:
        data = np.arange(1000, dtype=np.float64)
        proxy = store.proxy(data, cache_local=False)
        with WorkflowEngine(n_workers=1) as engine:
            future = engine.submit(_norm, proxy)
            assert future.result() == pytest.approx(float(np.linalg.norm(data)))
    finally:
        store.close(clear=True)


def test_faas_task_returns_proxy_consumed_by_client(tmp_path):
    """A task proxies its (large) result; the client resolves it lazily."""
    fabric = paper_testbed()
    clock = VirtualClock()
    cloud = CloudFaaSService(fabric, clock)
    cloud.register_endpoint(ComputeEndpoint('ep', 'theta-compute', clock, fabric))
    executor = Executor(cloud, 'ep', client_host='theta-login')
    store = Store(
        'integration-result-store',
        CostedConnector(FileConnector(str(tmp_path / 'results')),
                        SharedFilesystemCost(fabric), clock),
    )
    try:
        def produce(n, ctx=None):
            result_store = get_store('integration-result-store')
            return result_store.proxy(np.ones(n), cache_local=False)

        with on_host('theta-login'):
            future = executor.submit(produce, 200_000)
            result = future.result()
            assert isinstance(result, Proxy)
            assert not is_resolved(result)
            # Result payload through the cloud was tiny even though the array
            # is 1.6 MB.
            assert future.record().result_bytes < 5_000
            assert float(np.asarray(result).sum()) == 200_000
    finally:
        store.close(clear=True)


def test_store_reconstruction_chain_across_simulated_processes(tmp_path):
    """Proxy -> pickle -> unregister store -> resolve recreates the store once."""
    store = Store('integration-chain-store', FileConnector(str(tmp_path / 'chain')))
    proxies = [store.proxy(i, cache_local=False) for i in range(5)]
    wire = pickle.dumps(proxies)
    unregister_store('integration-chain-store')

    restored = pickle.loads(wire)
    assert [extract(p) for p in restored] == list(range(5))
    recreated = get_store('integration-chain-store')
    assert recreated is not None
    # Every factory resolved through the single recreated store instance.
    assert all(get_factory(p).get_store() is recreated for p in restored)
    recreated.close(clear=True)
    store.connector.close()


def test_multiconnector_store_spanning_redis_file_and_endpoint(tmp_path):
    """One Store routes objects to Redis, the file system, or an endpoint."""
    relay = RelayServer()
    endpoint = Endpoint('integration-site', relay)
    endpoint.start()
    multi = MultiConnector({
        'redis': (RedisConnector(launch=True), Policy(max_size_bytes=1_000, priority=2)),
        'file': (FileConnector(str(tmp_path / 'bulk')), Policy(min_size_bytes=1_001, priority=1)),
        'endpoint': (EndpointConnector([endpoint.uuid]),
                     Policy(superset_tags=('remote',), priority=10)),
    })
    store = Store('integration-multi-store', multi)
    try:
        small = store.proxy({'id': 1}, cache_local=False)
        bulk = store.proxy(np.zeros(10_000), cache_local=False)
        remote = store.proxy(b'model weights', superset_tags=('remote',), cache_local=False)
        assert get_factory(small).key.connector_label == 'redis'
        assert get_factory(bulk).key.connector_label == 'file'
        assert get_factory(remote).key.connector_label == 'endpoint'
        # All three resolve transparently through the same store.
        assert small['id'] == 1
        assert float(np.asarray(bulk).sum()) == 0.0
        assert bytes(remote) == b'model weights'
    finally:
        store.close(clear=True)
        endpoint.stop()


def test_colmena_pipeline_with_endpoint_store_across_sites():
    """Workflow results proxied through endpoints resolve at another 'site'."""
    relay = RelayServer()
    site_a = Endpoint('wf-site-a', relay)
    site_b = Endpoint('wf-site-b', relay)
    site_a.start()
    site_b.start()
    set_local_endpoint(site_a.uuid)
    store = Store('integration-colmena-endpoint',
                  EndpointConnector([site_a.uuid, site_b.uuid]))
    queues = ColmenaQueues()
    try:
        with WorkflowEngine(n_workers=1) as engine:
            server = TaskServer(queues, engine, fixed_overhead_s=0.0)
            server.register_topic('make-array', lambda n: np.full(n, 7.0),
                                  store=store, threshold_bytes=1_000)
            thinker = Thinker(queues)
            with server:
                result = thinker.run_task('make-array', 10_000)
        assert result.proxied_result
        # The "consumer" at site B resolves the proxied result via peering.
        set_local_endpoint(site_b.uuid)
        value = pickle.loads(pickle.dumps(result.value))
        assert float(np.asarray(value).mean()) == pytest.approx(7.0)
    finally:
        set_local_endpoint(None)
        store.close()
        site_a.stop()
        site_b.stop()


def test_metrics_capture_end_to_end_traffic(tmp_path):
    """Store metrics attribute time and bytes to each operation."""
    store = Store('integration-metrics', FileConnector(str(tmp_path / 'm')), metrics=True)
    try:
        proxies = store.proxy_batch([np.arange(100) for _ in range(4)], cache_local=False)
        for proxy in proxies:
            _ = proxy.sum()
        summary = store.metrics_summary()
        assert summary['put_batch']['count'] == 1
        assert summary['get']['count'] == 4
        assert summary['deserialize']['total_bytes'] > 0
    finally:
        store.close(clear=True)
