"""Tests of the transfer cost models and the CostedConnector wrapper."""
from __future__ import annotations

import pytest

from benchmarks.paper.sim import VirtualClock
from benchmarks.paper.sim import paper_testbed
from benchmarks.paper.sim.context import current_host
from benchmarks.paper.sim.context import on_host
from benchmarks.paper.sim.context import set_current_host
from benchmarks.paper.sim.costed import CostedConnector
from benchmarks.paper.sim.costs import CentralServerCost
from benchmarks.paper.sim.costs import CloudRelayCost
from benchmarks.paper.sim.costs import DataSpacesCost
from benchmarks.paper.sim.costs import DistributedMemoryCost
from benchmarks.paper.sim.costs import EndpointPeerCost
from benchmarks.paper.sim.costs import GlobusTransferCost
from benchmarks.paper.sim.costs import IPFSCost
from benchmarks.paper.sim.costs import SharedFilesystemCost
from benchmarks.paper.sim.costs import SSHTunnelRedisCost
from benchmarks.paper.sim.costs import TransferCostModel
from repro.connectors.local import LocalConnector
from repro.store import ContextLifetime
from repro.store import Store
from tests.conftest import CountingConnector


@pytest.fixture()
def fabric():
    return paper_testbed()


def test_context_current_host_default_and_override():
    assert current_host() == 'theta-login'
    token = set_current_host('midway2-login')
    assert current_host() == 'midway2-login'
    set_current_host(None)
    assert current_host() == 'theta-login'
    with on_host('frontera-login'):
        assert current_host() == 'frontera-login'
    assert current_host() == 'theta-login'


def test_cloud_relay_more_expensive_than_file_intra_site(fabric):
    size = 1_000_000
    cloud = CloudRelayCost(fabric).roundtrip_cost(size, 'theta-login', 'theta-compute')
    file = SharedFilesystemCost(fabric).roundtrip_cost(size, 'theta-login', 'theta-compute')
    assert cloud > file


def test_cloud_relay_grows_with_payload(fabric):
    model = CloudRelayCost(fabric)
    assert model.roundtrip_cost(5_000_000, 'midway2-login', 'theta-compute') > \
        model.roundtrip_cost(10, 'midway2-login', 'theta-compute') + 1.0


def test_globus_has_high_fixed_overhead_but_scales_well(fabric):
    globus = GlobusTransferCost(fabric)
    endpoint = EndpointPeerCost(fabric)
    small = 10_000
    huge = 2_000_000_000
    # Small transfers: Globus is far slower than peer endpoints.
    assert globus.roundtrip_cost(small, 'midway2-login', 'theta-compute') > \
        endpoint.roundtrip_cost(small, 'midway2-login', 'theta-compute')
    # Very large transfers: Globus overtakes the throttled data channel.
    assert globus.roundtrip_cost(huge, 'midway2-login', 'theta-compute') < \
        endpoint.roundtrip_cost(huge, 'midway2-login', 'theta-compute')


def test_endpoint_peering_setup_charged_once_per_site_pair(fabric):
    model = EndpointPeerCost(fabric)
    first = model.get_cost(1000, 'midway2-login', 'theta-compute')
    second = model.get_cost(1000, 'midway2-login', 'theta-compute')
    assert first > second
    # Reverse direction reuses the same (persistent, bidirectional) connection.
    reverse = model.get_cost(1000, 'theta-compute', 'midway2-login')
    assert reverse < first


def test_endpoint_same_site_cheaper_than_cross_site(fabric):
    model = EndpointPeerCost(fabric)
    same = model.get_cost(10_000, 'theta-login', 'theta-compute')
    cross = EndpointPeerCost(fabric).get_cost(10_000, 'frontera-login', 'theta-compute')
    assert same < cross


def test_distributed_memory_efficiency_ordering(fabric):
    size = 100_000_000
    margo = DistributedMemoryCost(fabric, software_efficiency=1.0)
    zmq = DistributedMemoryCost(fabric, software_efficiency=0.4)
    assert margo.get_cost(size, 'polaris-login', 'polaris-compute') < \
        zmq.get_cost(size, 'polaris-login', 'polaris-compute')


def test_distributed_memory_startup_charged_once(fabric):
    model = DistributedMemoryCost(fabric, startup_overhead_s=0.5)
    first = model.put_cost(10, 'polaris-login')
    second = model.put_cost(10, 'polaris-login')
    assert first > second


def test_dataspaces_and_ssh_and_ipfs_models_positive(fabric):
    for model in (DataSpacesCost(fabric), SSHTunnelRedisCost(fabric, server_host='theta-login'),
                  IPFSCost(fabric), CentralServerCost(fabric, server_host='theta-login')):
        assert model.roundtrip_cost(1_000_000, 'midway2-login', 'theta-compute') > 0


def test_costed_connector_charges_clock_and_ledger(fabric):
    clock = VirtualClock()
    connector = CostedConnector(LocalConnector(), SharedFilesystemCost(fabric), clock)
    with on_host('theta-login'):
        key = connector.put(b'x' * 100_000)
    after_put = clock.now()
    assert after_put > 0
    assert connector.ledger.put_count == 1
    with on_host('theta-compute'):
        assert connector.get(key) == b'x' * 100_000
    assert clock.now() > after_put
    assert connector.ledger.get_count == 1
    assert connector.ledger.total_cost == pytest.approx(clock.now())
    assert connector.ledger.last_get_cost > 0


def test_costed_connector_without_clock_only_records(fabric):
    connector = CostedConnector(LocalConnector(), SharedFilesystemCost(fabric))
    key = connector.put(b'abc')
    connector.get(key)
    assert connector.ledger.put_count == 1
    assert connector.ledger.get_count == 1


def test_costed_connector_get_missing_not_charged(fabric):
    clock = VirtualClock()
    connector = CostedConnector(LocalConnector(), SharedFilesystemCost(fabric), clock)
    key = connector.put(b'abc')
    connector.evict(key)
    before = clock.now()
    assert connector.get(key) is None
    assert clock.now() == before


def test_costed_connector_batch_operations(fabric):
    clock = VirtualClock()
    connector = CostedConnector(LocalConnector(), SharedFilesystemCost(fabric), clock)
    keys = connector.put_batch([b'a', b'b'])
    assert connector.ledger.put_count == 2
    assert connector.get_batch(keys) == [b'a', b'b']
    assert connector.ledger.get_count == 2
    assert connector.exists(keys[0])


def test_costed_connector_config_delegates_to_inner(fabric):
    inner = LocalConnector()
    connector = CostedConnector(inner, SharedFilesystemCost(fabric))
    assert connector.config() == inner.config()
    with pytest.raises(NotImplementedError):
        CostedConnector.from_config({})


# --------------------------------------------------------------------------- #
# Per-key bookkeeping and batched eviction through the wrapper
# --------------------------------------------------------------------------- #
class _FirstFetchModel(TransferCostModel):
    """Free puts; a get costs 1 s the first time a host fetches a key, 0.25 s after."""

    name = 'first-fetch'

    def put_cost(self, nbytes, host):
        return 0.0

    def get_cost(self, nbytes, origin_host, consumer_host, *, first_fetch=True):
        return 1.0 if first_fetch else 0.25


@pytest.fixture()
def cost_model():
    return _FirstFetchModel()


def test_costed_connector_delegates_evict_batch(cost_model):
    inner = CountingConnector()
    costed = CostedConnector(inner, cost_model)
    store = Store('costed-evict-batch', costed, metrics=True, register=False)
    keys = store.put_batch([b'a' * 64, b'b' * 64, b'c' * 64])
    store.evict_batch(keys)
    assert inner.evict_batch_calls == 1
    assert inner.evict_calls == 0
    assert not any(store.exists(key) for key in keys)
    assert store.metrics is not None
    stats = store.metrics.get('evict_batch')
    assert stats is not None and stats.count == 1
    assert store.metrics.get('evict') is None


def _per_key_state(costed):
    """Every per-key container a CostedConnector holds (not its lock/ledger)."""
    return {
        name: value for name, value in vars(costed).items()
        if isinstance(value, (dict, set, list))
    }


def test_costed_connector_evict_batch_clears_bookkeeping(cost_model):
    inner = CountingConnector()
    costed = CostedConnector(inner, cost_model)
    keys = [costed.put(b'x' * 128) for _ in range(3)]
    for key in keys:
        costed.get(key)
    state = _per_key_state(costed)
    assert set(state) == {'_origins', '_fetched_at'}
    assert all(set(held) == set(keys) for held in state.values())
    costed.evict_batch(keys[:2])
    costed.evict(keys[2])
    assert not any(_per_key_state(costed).values())


def test_costed_connector_rewritten_key_is_a_new_transfer(cost_model):
    """evict -> set -> get at the same host pays the first-fetch cost again."""
    costed = CostedConnector(LocalConnector(), cost_model)
    key = costed.new_key()
    costed.set(key, b'v1')
    costed.get(key)
    costed.get(key)
    assert costed.ledger.last_get_cost == 0.25
    costed.evict(key)
    costed.set(key, b'v2')
    assert costed.get(key) == b'v2'
    assert costed.ledger.last_get_cost == 1.0
    # An overwrite without an evict is a new object as well.
    costed.set(key, b'v3')
    costed.get(key)
    assert costed.ledger.last_get_cost == 1.0


def test_lifetime_close_is_one_batch_through_costed_store(cost_model):
    inner = CountingConnector()
    store = Store(
        'costed-lifetime',
        CostedConnector(inner, cost_model),
        metrics=True,
        register=False,
    )
    with ContextLifetime(store=store) as lifetime:
        for i in range(5):
            store.proxy(i, lifetime=lifetime)
    assert inner.evict_batch_calls == 1
    assert inner.evict_calls == 0
    assert store.metrics is not None
    stats = store.metrics.get('evict_batch')
    assert stats is not None and stats.count == 1
