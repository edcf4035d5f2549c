"""``config()`` of the KV-backed connectors, pinned key for key.

These dicts travel inside every proxy (``StoreConfig.connector_config``)
and are what a consumer process rebuilds its connector from, so their
keys, values and order are a wire format.  ``config()`` leaves out every
constructor argument at its default.  The ``*_FULL`` literals are what
commits before that wrote (defaults spelled out, captured before the
node-vocabulary refactor); such a config must still load and rebuild the
same connector.
"""
from __future__ import annotations

import pytest

from repro.connectors.margo import MargoConnector
from repro.connectors.redis import RedisConnector
from repro.connectors.ucx import UCXConnector
from repro.connectors.zmq import ZMQConnector
from repro.dim import reset_nodes

DIM_CONNECTORS = [ZMQConnector, UCXConnector, MargoConnector]

DIM_DEFAULT = {
    'node_id': 'pin0', 'peers': [], 'replicas': 1, 'ring_vnodes': 0,
    'hedge_threshold': 0.05, 'failure_threshold': 1, 'rebalance': False,
    'rebalance_throttle': None,
}
DIM_DEFAULT_FULL = {
    'node_id': 'pin0', 'peers': [], 'shard_threshold': 67108864,
    'pool_size': 2, 'timeout': 10.0, 'replicas': 1, 'ring_vnodes': 0,
    'hedge_threshold': 0.05, 'failure_threshold': 1, 'rebalance': False,
    'rebalance_throttle': None,
}
DIM_CLUSTERED = {
    'node_id': 'pin0', 'peers': ['pin0', 'pin1', 'pin2'],
    'replicas': 2, 'ring_vnodes': 0, 'hedge_threshold': 0.05,
    'failure_threshold': 1, 'rebalance': True, 'rebalance_throttle': None,
}
DIM_CLUSTERED_FULL = {
    'node_id': 'pin0', 'peers': ['pin0', 'pin1', 'pin2'],
    'shard_threshold': 67108864, 'pool_size': 2, 'timeout': 10.0,
    'replicas': 2, 'ring_vnodes': 0, 'hedge_threshold': 0.05,
    'failure_threshold': 1, 'rebalance': True, 'rebalance_throttle': None,
}
DIM_TUNED = {
    'node_id': 'pin0', 'peers': ['pin0', 'pin1'], 'shard_threshold': 1024,
    'pool_size': 4, 'timeout': 5.0, 'replicas': 2, 'ring_vnodes': 8,
    'hedge_threshold': 0.2, 'failure_threshold': 3, 'rebalance': False,
    'rebalance_throttle': 1000000.0,
}
REDIS_SINGLE = {'port': 7001}
REDIS_SINGLE_FULL = {
    'host': '127.0.0.1', 'port': 7001, 'pool_size': 2, 'timeout': 10.0,
}
REDIS_CLUSTERED = {
    'port': 7001, 'nodes': ['127.0.0.1:7001', '127.0.0.1:7002'],
    'replicas': 2, 'ring_vnodes': 64, 'hedge_threshold': 0.05,
    'failure_threshold': 1, 'rebalance': True, 'rebalance_throttle': None,
}
REDIS_CLUSTERED_FULL = {
    'host': '127.0.0.1', 'port': 7001, 'pool_size': 2, 'timeout': 10.0,
    'nodes': ['127.0.0.1:7001', '127.0.0.1:7002'], 'replicas': 2,
    'ring_vnodes': 64, 'hedge_threshold': 0.05, 'failure_threshold': 1,
    'rebalance': True, 'rebalance_throttle': None,
}
REDIS_TUNED = {
    'port': 7001, 'pool_size': 4, 'timeout': 5.0,
    'nodes': ['127.0.0.1:7001', '127.0.0.1:7002'], 'replicas': 3,
    'ring_vnodes': 8, 'hedge_threshold': 0.2, 'failure_threshold': 3,
    'rebalance': False, 'rebalance_throttle': 1000000.0,
}
REDIS_TUNED_FULL = {'host': '127.0.0.1', **REDIS_TUNED}

TUNING = dict(
    replicas=2, ring_vnodes=8, hedge_threshold=0.2, failure_threshold=3,
    rebalance=False, rebalance_throttle=1e6, pool_size=4, timeout=5.0,
)


@pytest.fixture(autouse=True)
def _clean_nodes():
    yield
    reset_nodes()


def _assert_pinned(connector, expected, full=None):
    try:
        config = connector.config()
        # Dict equality ignores order; the wire form does not.
        assert list(config.items()) == list(expected.items())
        # The dict loads and says the same, and so does the one an earlier
        # commit wrote with every default spelled out.
        for written in (expected, full or expected):
            clone = type(connector)(**written)
            try:
                assert list(clone.config().items()) == list(expected.items())
            finally:
                clone.close()
    finally:
        connector.close()


@pytest.mark.parametrize('cls', DIM_CONNECTORS)
def test_dim_config_is_pinned(cls):
    _assert_pinned(cls('pin0'), DIM_DEFAULT, DIM_DEFAULT_FULL)
    _assert_pinned(
        cls('pin0', peers=['pin0', 'pin1', 'pin2'], replicas=2),
        DIM_CLUSTERED, DIM_CLUSTERED_FULL,
    )
    _assert_pinned(
        cls('pin0', peers=['pin0', 'pin1'], shard_threshold=1024, **TUNING),
        DIM_TUNED,
    )


def test_dim_addressed_peers_stay_lists_in_config():
    connector = ZMQConnector('pin0', peers=[('far', '10.0.0.1', 7000), 'pin0'])
    _assert_pinned(
        connector,
        {**DIM_DEFAULT, 'peers': [['far', '10.0.0.1', 7000], 'pin0']},
    )


def test_redis_config_is_pinned():
    # KV clients connect lazily, so no server needs to be listening.
    nodes = ['127.0.0.1:7001', '127.0.0.1:7002']
    _assert_pinned(
        RedisConnector('127.0.0.1', 7001), REDIS_SINGLE, REDIS_SINGLE_FULL,
    )
    _assert_pinned(
        RedisConnector(nodes=nodes, replicas=2),
        REDIS_CLUSTERED, REDIS_CLUSTERED_FULL,
    )
    _assert_pinned(
        RedisConnector(nodes=nodes, **{**TUNING, 'replicas': 3}),
        REDIS_TUNED, REDIS_TUNED_FULL,
    )


def test_cluster_keywords_are_checked_in_every_mode():
    with pytest.raises(TypeError):
        RedisConnector('127.0.0.1', 7001, replicsa=2)
    with pytest.raises(TypeError):
        MargoConnector('pin0', hedge_treshold=0.1)
