"""Tests of Store.proxy and the StoreFactory resolution path."""
from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.connectors.file import FileConnector
from repro.connectors.local import LocalConnector
from repro.exceptions import StoreError
from repro.exceptions import StoreKeyError
from repro.proxy import Proxy
from repro.proxy import extract
from repro.proxy import get_factory
from repro.proxy import is_resolved
from repro.proxy import resolve
from repro.proxy import resolve_async
from repro.store import Store
from repro.store import StoreFactory
from repro.store import get_store
from repro.store import unregister_store


def test_proxy_returns_lazy_proxy(local_store):
    p = local_store.proxy([1, 2, 3], cache_local=False)
    assert isinstance(p, Proxy)
    assert not is_resolved(p)
    assert p == [1, 2, 3]
    assert is_resolved(p)


def test_proxy_isinstance_of_target_type(local_store):
    p = local_store.proxy(np.arange(5), cache_local=False)
    assert isinstance(p, np.ndarray)
    assert p.sum() == 10


def test_proxy_factory_is_store_factory(local_store):
    p = local_store.proxy('value')
    factory = get_factory(p)
    assert isinstance(factory, StoreFactory)
    assert factory.store_config.name == local_store.name


def test_proxy_pickle_is_small_and_resolvable(local_store):
    big = np.zeros(250_000)  # ~2 MB when serialized
    p = local_store.proxy(big, cache_local=False)
    data = pickle.dumps(p)
    assert len(data) <= 250  # only the factory travels (test_proxy_wire.py)
    restored = pickle.loads(data)
    assert np.array_equal(extract(restored), big)


def test_proxy_local_cache_avoids_connector(local_store):
    obj = {'payload': list(range(100))}
    p = local_store.proxy(obj, cache_local=True)
    # Remove from the connector: the local cache must still resolve it.
    key = get_factory(p).key
    local_store.connector.evict(key)
    assert p == obj


def test_proxy_evict_flag_removes_object_after_first_resolve(local_store):
    p = local_store.proxy('ephemeral', evict=True, cache_local=False)
    key = get_factory(p).key
    assert local_store.connector.exists(key)
    resolve(p)
    assert extract(p) == 'ephemeral'
    assert not local_store.connector.exists(key)


def test_proxy_without_evict_keeps_object(local_store):
    p = local_store.proxy('persistent', cache_local=False)
    key = get_factory(p).key
    resolve(p)
    assert local_store.connector.exists(key)


def test_resolving_missing_object_raises_store_key_error(local_store):
    p = local_store.proxy('x', cache_local=False)
    local_store.evict(get_factory(p).key)
    with pytest.raises(Exception) as excinfo:
        resolve(p)
    # The ProxyResolveError wraps the StoreKeyError raised by the factory.
    assert 'does not exist' in str(excinfo.value)


def test_store_factory_direct_resolution(local_store):
    key = local_store.put('direct')
    factory = StoreFactory(key, local_store.config())
    assert factory() == 'direct'


def test_store_factory_missing_key_raises(local_store):
    key = local_store.put('x')
    local_store.evict(key)
    factory = StoreFactory(key, local_store.config())
    with pytest.raises(StoreKeyError):
        factory.resolve()


def test_store_factory_equality_and_hash(local_store):
    key = local_store.put('x')
    config = local_store.config()
    assert StoreFactory(key, config) == StoreFactory(key, config)
    assert hash(StoreFactory(key, config)) == hash(StoreFactory(key, config))
    assert StoreFactory(key, config) != StoreFactory(key, config, evict=True)


def test_proxy_batch(local_store):
    objs = ['a', 'b', 'c']
    proxies = local_store.proxy_batch(objs, cache_local=False)
    assert len(proxies) == 3
    assert [extract(p) for p in proxies] == objs


def test_proxy_batch_evict(local_store):
    proxies = local_store.proxy_batch(['a', 'b'], evict=True, cache_local=False)
    keys = [get_factory(p).key for p in proxies]
    for p in proxies:
        resolve(p)
    assert all(not local_store.connector.exists(k) for k in keys)


def test_proxy_from_key(local_store):
    key = local_store.put({'k': 1})
    p = local_store.proxy_from_key(key)
    assert p == {'k': 1}


def test_locked_proxy_is_pre_resolved(local_store):
    p = local_store.locked_proxy('already here')
    assert is_resolved(p)
    assert p == 'already here'
    # And the data is still stored for other consumers.
    key = get_factory(p).key
    assert local_store.connector.exists(key)


def test_proxy_resolution_registers_store_in_new_registry_state(tmp_path):
    """Simulates resolving a proxy in a process without the store registered."""
    store = Store('producer-store', FileConnector(str(tmp_path / 'd')))
    p = store.proxy([1, 2, 3], cache_local=False)
    data = pickle.dumps(p)

    # Simulate a fresh consumer process: drop the registry entry.
    unregister_store('producer-store')
    assert get_store('producer-store') is None

    restored = pickle.loads(data)
    assert restored == [1, 2, 3]
    # Resolution re-created and registered an equivalent store.
    recreated = get_store('producer-store')
    assert recreated is not None
    assert recreated is not store
    recreated.close(clear=True)


def test_proxy_resolution_reuses_registered_store(local_store):
    p = local_store.proxy('x', cache_local=False)
    restored = pickle.loads(pickle.dumps(p))
    resolve(restored)
    # The factory found the already-registered store rather than making a new one.
    assert get_factory(restored).get_store() is local_store


def test_resolve_async_prefetches_via_store(local_store):
    p = local_store.proxy('prefetch me', cache_local=False)
    resolve_async(p)
    assert p == 'prefetch me'


def test_resolve_async_noop_when_cached(local_store):
    p = local_store.proxy('cached', cache_local=True)
    resolve_async(p)  # object already in local cache; should remain resolvable
    assert p == 'cached'


def test_proxy_connector_kwargs_rejected_for_plain_connector(local_store):
    # Connectors whose put() does not accept routing kwargs raise a clear
    # StoreError instead of silently dropping the constraints.
    with pytest.raises(StoreError, match='subset_tags'):
        local_store.proxy('x', subset_tags=('gpu',))


class _PassThrough(LocalConnector):
    """A wrapper connector: ``put`` forwards any kwargs to ``inner``."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def put(self, data, **kwargs):
        return self.inner.put(data, **kwargs)


def test_proxy_connector_kwargs_rejected_through_wrapper():
    """Validation follows wrapper connectors' inner chain instead of being
    fooled by their pass-through **kwargs signature."""
    store = Store(
        'wrapped-kwargs-store', _PassThrough(LocalConnector()), register=False,
    )
    with pytest.raises(StoreError, match='subset_tags'):
        store.proxy('x', subset_tags=('gpu',))
    store.close(clear=True)


def test_proxy_connector_kwargs_carried_in_factory(tmp_path):
    from repro.connectors.multi import MultiConnector
    from repro.connectors.policy import Policy

    conn = MultiConnector({
        'gpu': (LocalConnector(), Policy(superset_tags=('gpu',), priority=5)),
        'any': (LocalConnector(), Policy(priority=0)),
    })
    store = Store('kwargs-factory-store', conn, register=False)
    p = store.proxy('weights', superset_tags=('gpu',))
    factory = get_factory(p)
    # The MultiConnector routing constraints survive inside the factory so a
    # re-store elsewhere can honour them — and they round-trip a pickle.
    assert factory.connector_kwargs == {'superset_tags': ('gpu',)}
    restored = pickle.loads(pickle.dumps(factory))
    assert restored.connector_kwargs == {'superset_tags': ('gpu',)}
    store.close(clear=True)


def test_proxy_batch_connector_kwargs_carried_in_factory():
    from repro.connectors.multi import MultiConnector
    from repro.connectors.policy import Policy

    gpu_conn = LocalConnector()
    conn = MultiConnector({
        'gpu': (gpu_conn, Policy(superset_tags=('gpu',), priority=5)),
        'any': (LocalConnector(), Policy(priority=0)),
    })
    store = Store('batch-kwargs-store', conn, register=False)
    proxies = store.proxy_batch(['a', 'b'], superset_tags=('gpu',))
    # The batch path forwards the routing constraints to the connector ...
    for p in proxies:
        factory = get_factory(p)
        assert factory.key.connector_label == 'gpu'
        # ... and embeds them in every factory, like the scalar proxy().
        assert factory.connector_kwargs == {'superset_tags': ('gpu',)}
    assert [str(p) for p in proxies] == ['a', 'b']
    store.close(clear=True)


def test_proxy_batch_connector_kwargs_rejected_for_plain_connector(local_store):
    with pytest.raises(StoreError, match='subset_tags'):
        local_store.proxy_batch(['x'], subset_tags=('gpu',))


# --------------------------------------------------------------------------- #
# extract(evict=...): read-time parity with Store.proxy(evict=...)
# --------------------------------------------------------------------------- #
def test_extract_evict_removes_backing_key(local_store):
    p = local_store.proxy('read-once', cache_local=False)
    key = get_factory(p).key
    assert extract(p, evict=True) == 'read-once'
    assert not local_store.connector.exists(key)
    assert not local_store.is_cached(key)


def test_extract_without_evict_keeps_key(local_store):
    p = local_store.proxy('kept', cache_local=False)
    assert extract(p) == 'kept'
    assert local_store.connector.exists(get_factory(p).key)


def test_extract_evict_on_evicting_proxy_does_not_double_evict(local_store):
    # evict-on-resolve already removed the key during resolution; the
    # explicit evict request must not raise on the now-missing key.
    p = local_store.proxy('once', evict=True, cache_local=False)
    key = get_factory(p).key
    assert extract(p, evict=True) == 'once'
    assert not local_store.connector.exists(key)


def test_extract_evict_requires_store_backed_proxy():
    from repro.proxy import SimpleFactory

    p = Proxy(SimpleFactory('bare'))
    assert extract(p) == 'bare'  # no store involved: plain extraction works
    with pytest.raises(TypeError):
        extract(Proxy(SimpleFactory('bare')), evict=True)


def test_extract_evict_rejects_owned_proxies(local_store):
    from repro.exceptions import OwnershipError

    p = local_store.owned_proxy('owned', cache_local=False)
    with pytest.raises(OwnershipError):
        extract(p, evict=True)
    # The owner still controls the key.
    assert local_store.connector.exists(get_factory(p).key)


def test_an_evicting_resolve_fetches_past_the_cache():
    store = Store.from_url('local:///evicting-resolve?cache_size=1')
    try:
        kept = store.proxy('kept', cache_local=False)
        assert kept == 'kept'  # the one cache slot now holds it
        gets = []
        fetch = store.connector.get
        store.connector.get = lambda key: gets.append(key) or fetch(key)
        once = store.proxy('read once', evict=True)
        assert once == 'read once'
        # One connector get, and nothing inserted: 'kept' was not pushed out.
        assert gets == [get_factory(once).key]
        assert not store.connector.exists(get_factory(once).key)
        stats = store.cache_stats()
        assert (stats['entries'], stats['evictions']) == (1, 0)
        assert store.is_cached(get_factory(kept).key)
        # A value already cached is served from the cache, then evicted.
        gets.clear()
        cached = store.proxy('cached', evict=True)
        key = get_factory(cached).key
        store.get(key)
        gets.clear()
        assert cached == 'cached'
        assert gets == []
        assert not store.is_cached(key) and not store.connector.exists(key)
    finally:
        store.close(clear=True)
