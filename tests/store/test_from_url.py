"""Tests of the v2 URL construction API: Store.from_url / store_from_url."""
from __future__ import annotations

from urllib.parse import quote

import pytest

import repro
from repro.connectors.endpoint import set_local_endpoint
from repro.connectors.file import FileConnector
from repro.connectors.globus import GlobusConnector
from repro.connectors.globus import set_current_hostname
from repro.connectors.local import LocalConnector
from repro.connectors.margo import MargoConnector
from repro.connectors.multi import MultiConnector
from repro.connectors.redis import RedisConnector
from repro.connectors.ucx import UCXConnector
from repro.connectors.zmq import ZMQConnector
from repro.endpoint import Endpoint
from repro.endpoint import RelayServer
from repro.connectors.globus_service import GlobusEndpointSpec
from repro.connectors.globus_service import reset_transfer_service
from repro.connectors.globus_service import get_transfer_service
from repro.store import Store


def _roundtrip(store: Store, obj) -> None:
    """put/get and proxy round trip through a freshly URL-built store."""
    key = store.put(obj)
    assert store.get(key) == obj
    proxy = store.proxy(obj, cache_local=False)
    assert proxy == obj


def test_from_url_local_roundtrip():
    store = Store.from_url('local://shared-url-test/url-local?cache_size=4')
    try:
        assert isinstance(store.connector, LocalConnector)
        assert store.connector.store_id == 'shared-url-test'
        assert store.name == 'url-local'
        assert store.cache.maxsize == 4
        _roundtrip(store, {'x': 1})
    finally:
        store.close(clear=True)


def test_from_url_file_roundtrip(tmp_path):
    store = Store.from_url(f'file://{tmp_path}/objs?name=url-file&metrics=1')
    try:
        assert isinstance(store.connector, FileConnector)
        assert store.connector.store_dir == str(tmp_path / 'objs')
        assert store.metrics is not None
        _roundtrip(store, [1, 2, 3])
    finally:
        store.close(clear=True)


def test_from_url_redis_roundtrip():
    store = Store.from_url('redis:///url-redis?launch=1')
    try:
        assert isinstance(store.connector, RedisConnector)
        assert store.name == 'url-redis'
        _roundtrip(store, b'payload')
    finally:
        store.close(clear=True)


@pytest.mark.parametrize(
    ('scheme', 'cls'),
    [('margo', MargoConnector), ('ucx', UCXConnector), ('zmq', ZMQConnector)],
)
def test_from_url_dim_roundtrip(scheme, cls):
    store = Store.from_url(f'{scheme}://url-node-{scheme}/url-{scheme}')
    try:
        assert isinstance(store.connector, cls)
        assert store.connector.node_id == f'url-node-{scheme}'
        _roundtrip(store, {'dim': scheme})
    finally:
        store.close(clear=True)


def test_from_url_endpoint_roundtrip():
    relay = RelayServer()
    with Endpoint('url-site', relay) as endpoint:
        set_local_endpoint(endpoint.uuid)
        try:
            store = Store.from_url(
                f'endpoint://{endpoint.uuid}/url-endpoint?local={endpoint.uuid}',
            )
            try:
                assert store.connector.endpoints == [endpoint.uuid]
                _roundtrip(store, {'site': 'a'})
            finally:
                store.close()
        finally:
            set_local_endpoint(None)


def test_from_url_globus_roundtrip(tmp_path):
    service = get_transfer_service()
    spec_a = GlobusEndpointSpec.create(str(tmp_path / 'site-a'))
    spec_b = GlobusEndpointSpec.create(str(tmp_path / 'site-b'))
    service.register_endpoint(spec_a)
    service.register_endpoint(spec_b)
    url = (
        'globus:///url-globus'
        f'?endpoint=site-a|{spec_a.endpoint_uuid}|{spec_a.endpoint_path}'
        f'&endpoint=site-b|{spec_b.endpoint_uuid}|{spec_b.endpoint_path}'
        '&transfer_timeout=10'
    )
    set_current_hostname('site-a-login')
    try:
        store = Store.from_url(url)
        try:
            assert isinstance(store.connector, GlobusConnector)
            assert store.connector.transfer_timeout == 10.0
            assert store.name == 'url-globus'
            _roundtrip(store, {'bulk': True})
        finally:
            store.close(clear=True)
    finally:
        set_current_hostname(None)
        reset_transfer_service()


def test_from_url_multi_roundtrip(tmp_path):
    small = quote('local://?max_size_bytes=1000&priority=2', safe='')
    bulk = quote(f'file://{tmp_path}/bulk?min_size_bytes=1001', safe='')
    store = Store.from_url(f'multi://?small={small}&bulk={bulk}', name='url-multi')
    try:
        conn = store.connector
        assert isinstance(conn, MultiConnector)
        assert sorted(conn.connectors) == ['bulk', 'small']
        assert conn.policy_for('small').max_size_bytes == 1000
        assert conn.policy_for('small').priority == 2
        assert conn.policy_for('bulk').min_size_bytes == 1001
        assert isinstance(conn.connector_for('bulk'), FileConnector)
        small_key = conn.put(b'x' * 10)
        assert small_key.connector_label == 'small'
        bulk_key = conn.put(b'x' * 5000)
        assert bulk_key.connector_label == 'bulk'
        _roundtrip(store, list(range(10)))
    finally:
        store.close(clear=True)


def test_from_url_multi_policy_tags():
    gpu = quote('local://?superset_tags=gpu&priority=9', safe='')
    any_ = quote('local://?priority=0', safe='')
    store = Store.from_url(f'multi://?gpu={gpu}&any={any_}', name='url-multi-tags')
    try:
        key = store.connector.put(b'weights', superset_tags=('gpu',))
        assert key.connector_label == 'gpu'
        assert store.connector.put(b'plain').connector_label == 'any'
    finally:
        store.close(clear=True)


def test_store_from_url_module_level_one_liner():
    store = repro.store_from_url('local:///one-liner?cache_size=2')
    try:
        assert store.name == 'one-liner'
        assert repro.get_store('one-liner') is store
    finally:
        store.close(clear=True)


def test_from_url_generates_unique_names():
    a = Store.from_url('local://', register=False)
    b = Store.from_url('local://', register=False)
    assert a.name != b.name
    assert a.name.startswith('local-store-')


def test_from_url_explicit_name_beats_query_and_path():
    store = Store.from_url('local:///path-name?name=query-name', name='kwarg-name')
    try:
        assert store.name == 'kwarg-name'
    finally:
        store.close(clear=True)


def test_from_url_register_false_via_query():
    store = Store.from_url('local:///unregistered?register=0')
    assert repro.get_store('unregistered') is None
    store.close(clear=True)


def test_from_url_rejects_unknown_parameters():
    with pytest.raises(ValueError, match='cache_siez'):
        Store.from_url('local://?cache_siez=4')


def test_from_url_config_roundtrips_through_scheme(tmp_path):
    """A URL-built store's config rebuilds the connector registry-first."""
    store = Store.from_url(f'file://{tmp_path}/cfg?name=url-cfg-store')
    try:
        config = store.config()
        assert config.scheme == 'file'
        rebuilt = config.make_connector()
        assert isinstance(rebuilt, FileConnector)
        assert rebuilt.store_dir == store.connector.store_dir
    finally:
        store.close(clear=True)


def test_from_url_wrap_connector():
    wrapped: list = []

    def wrap(connector):
        wrapped.append(connector)
        return connector

    store = Store.from_url('local:///wrapped-store', wrap_connector=wrap)
    try:
        assert wrapped and store.connector is wrapped[0]
    finally:
        store.close(clear=True)


def test_from_url_cache_max_bytes():
    store = Store.from_url('local://?cache_size=4&cache_max_bytes=4096', register=False)
    try:
        assert store.cache.max_bytes == 4096
    finally:
        store.close(clear=True)
