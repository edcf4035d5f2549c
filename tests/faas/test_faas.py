"""Tests of the Globus-Compute-like FaaS substrate."""
from __future__ import annotations

import pickle

import pytest

from benchmarks.paper.faas import CloudFaaSService
from benchmarks.paper.faas import ComputeEndpoint
from benchmarks.paper.faas import Executor
from benchmarks.paper.faas import FaaSError
from benchmarks.paper.faas import PayloadTooLargeError
from benchmarks.paper.faas import TaskContext
from benchmarks.paper.faas import TaskExecutionError
from benchmarks.paper.sim import VirtualClock
from benchmarks.paper.sim import paper_testbed
from benchmarks.paper.sim.context import on_host
from benchmarks.paper.sim.costed import CostedConnector
from benchmarks.paper.sim.costs import SharedFilesystemCost
from repro.connectors.local import LocalConnector
from repro.proxy import Proxy
from repro.store import Store
from repro.store import StoreConfig


@pytest.fixture()
def fabric():
    return paper_testbed()


@pytest.fixture()
def clock():
    return VirtualClock()


@pytest.fixture()
def cloud(fabric, clock):
    service = CloudFaaSService(fabric, clock)
    endpoint = ComputeEndpoint('theta', 'theta-compute', clock, fabric)
    service.register_endpoint(endpoint)
    return service


@pytest.fixture()
def executor(cloud):
    return Executor(cloud, 'theta', client_host='theta-login')


def _double(x, ctx=None):
    return x * 2


def _double_len(x, ctx=None):
    return len(x) * 2


def _sleepy(seconds, ctx=None):
    ctx.sleep(seconds)
    return seconds


def _failing(ctx=None):
    raise RuntimeError('task exploded')


def test_submit_and_result(executor):
    future = executor.submit(_double, 21)
    assert future.done()
    assert future.result() == 42


def test_result_is_idempotent(executor, clock):
    future = executor.submit(_double, 1)
    first = future.result()
    t = clock.now()
    assert future.result() == first
    assert clock.now() == t  # second call does not re-download


def test_unknown_endpoint_rejected(cloud):
    with pytest.raises(FaaSError):
        Executor(cloud, 'nonexistent')


def test_roundtrip_advances_virtual_time(executor, clock):
    assert clock.now() == 0.0
    executor.submit(_double, 5).result()
    # Four request overheads plus network time.
    assert clock.now() > 4 * 0.3


def test_virtual_sleep_included_in_roundtrip(executor, clock):
    executor.submit(_sleepy, 2.5).result()
    assert clock.now() > 2.5


def test_payload_limit_enforced(executor):
    with pytest.raises(PayloadTooLargeError):
        executor.submit(_double, b'x' * (6 * 1024 * 1024))


def test_proxy_payload_bypasses_limit(executor, fabric, clock):
    store = Store(
        'faas-test-store',
        CostedConnector(LocalConnector(), SharedFilesystemCost(fabric), clock),
    )
    try:
        big = b'x' * (6 * 1024 * 1024)
        with on_host('theta-login'):
            proxy = store.proxy(big, cache_local=False)
            # The 6 MB input rides as a tiny proxy; only the scalar result
            # travels back through the cloud.
            future = executor.submit(_double_len, proxy)
            assert future.result() == 2 * len(big)
    finally:
        store.close(clear=True)


def test_task_exception_surfaces_on_result(executor):
    future = executor.submit(_failing)
    with pytest.raises(TaskExecutionError, match='task exploded'):
        future.result()


def test_larger_payloads_take_longer(fabric):
    def roundtrip(nbytes: int) -> float:
        clock = VirtualClock()
        cloud = CloudFaaSService(fabric, clock)
        cloud.register_endpoint(ComputeEndpoint('ep', 'theta-compute', clock, fabric))
        Executor(cloud, 'ep', client_host='midway2-login').submit(_double, b'x' * nbytes).result()
        return clock.now()

    assert roundtrip(1_000_000) > roundtrip(100)


def test_task_record_bookkeeping(executor):
    future = executor.submit(_double, 'ab')
    future.result()
    record = future.record()
    assert record.done
    assert record.input_bytes > 0
    assert record.result_bytes > 0
    assert record.roundtrip_time > 0
    assert set(record.timeline) >= {'upload', 'dispatch', 'execute', 'result_upload'}


def test_executor_map(executor):
    futures = executor.map(_double, [1, 2, 3])
    assert [f.result() for f in futures] == [2, 4, 6]


def test_endpoint_runs_tasks_on_its_host(cloud, clock, fabric):
    from benchmarks.paper.sim.context import current_host

    def where_am_i(ctx=None):
        return current_host()

    executor = Executor(cloud, 'theta', client_host='midway2-login')
    assert executor.submit(where_am_i).result() == 'theta-compute'


def test_endpoint_task_counter(cloud, executor):
    endpoint_obj = cloud._endpoint('theta')
    before = endpoint_obj.tasks_executed
    executor.submit(_double, 1).result()
    assert endpoint_obj.tasks_executed == before + 1


def test_fetch_result_unknown_task(cloud):
    with pytest.raises(FaaSError):
        cloud.fetch_result('theta-login', 'bogus')


def test_task_context_finds_the_store_by_name_without_a_config(monkeypatch):
    """``resolve_proxy`` looks the store up by the factory's plain name: an
    unpickled proxy is resolved without its ``StoreConfig`` ever being built."""
    def boom(*args, **kwargs):
        raise AssertionError('StoreConfig materialised on the fast path')

    store = Store.from_url('local:///task-context-by-name')
    try:
        wire = pickle.dumps(store.proxy({'k': 'v'}, cache_local=False))
        monkeypatch.setattr(StoreConfig, 'from_wire', boom)
        proxy = pickle.loads(wire)
        TaskContext(VirtualClock(), 'host').resolve_proxy(proxy)
        assert proxy == {'k': 'v'}
    finally:
        store.close(clear=True)
