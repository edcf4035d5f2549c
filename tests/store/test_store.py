"""Tests of the Store object-level API."""
from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro.connectors.file import FileConnector
from repro.connectors.local import LocalConnector
from repro.exceptions import StoreExistsError
from repro.proxy import get_factory
from repro.proxy import is_resolved
from repro.store import Store
from repro.store import get_or_create_store
from repro.store import get_store
from repro.store import list_stores
from repro.store import register_store
from repro.store import unregister_store


def test_store_requires_nonempty_name():
    with pytest.raises(ValueError):
        Store('', LocalConnector(), register=False)
    with pytest.raises(ValueError):
        Store(None, LocalConnector(), register=False)  # type: ignore[arg-type]


def test_store_rejects_negative_cache_size():
    with pytest.raises(ValueError):
        Store('x', LocalConnector(), cache_size=-1, register=False)


def test_put_get_roundtrip(local_store):
    key = local_store.put({'a': 1})
    assert local_store.get(key) == {'a': 1}


def test_get_missing_returns_default(local_store):
    key = local_store.put('x')
    local_store.evict(key)
    assert local_store.get(key) is None
    assert local_store.get(key, default='gone') == 'gone'


def test_exists_and_evict(local_store):
    key = local_store.put([1, 2])
    assert local_store.exists(key)
    local_store.evict(key)
    assert not local_store.exists(key)


def test_put_batch_get_batch(local_store):
    objs = [1, 'two', {'three': 3}, np.arange(4)]
    keys = local_store.put_batch(objs)
    results = local_store.get_batch(keys)
    assert results[0] == 1
    assert results[1] == 'two'
    assert results[2] == {'three': 3}
    assert np.array_equal(results[3], np.arange(4))


def test_get_batch_mixed_missing(local_store):
    keys = local_store.put_batch(['a', 'b'])
    local_store.evict(keys[0])
    assert local_store.get_batch(keys) == [None, 'b']


def test_get_uses_cache_for_repeated_access(local_store):
    key = local_store.put([1, 2, 3])
    first = local_store.get(key)
    # Evict from the connector only; the cached object must still be served.
    local_store.connector.evict(key)
    second = local_store.get(key)
    assert second == first
    assert local_store.cache_stats()['hits'] >= 1


def test_cache_disabled_with_zero_size():
    store = Store('no-cache', LocalConnector(), cache_size=0, register=False)
    key = store.put('x')
    assert store.get(key) == 'x'
    store.connector.evict(key)
    assert store.get(key) is None
    store.close()


def test_custom_serializer_applies(local_store):
    events = []

    def ser(obj):
        events.append('ser')
        return repr(obj).encode()

    def des(data):
        events.append('des')
        return eval(data.decode())  # noqa: S307 - test only

    key = local_store.put([1, 2], serializer=ser)
    assert local_store.get(key, deserializer=des) == [1, 2]
    assert events == ['ser', 'des']


def test_store_registration_on_create():
    store = Store('registered-store', LocalConnector())
    try:
        assert get_store('registered-store') is store
        assert 'registered-store' in list_stores()
    finally:
        store.close()
    assert get_store('registered-store') is None


def test_duplicate_registration_raises():
    store = Store('dup-store', LocalConnector())
    try:
        with pytest.raises(StoreExistsError):
            Store('dup-store', LocalConnector())
    finally:
        store.close()


def test_register_store_exist_ok():
    a = Store('replaceable', LocalConnector())
    b = Store('replaceable', LocalConnector(), register=False)
    register_store(b, exist_ok=True)
    assert get_store('replaceable') is b
    unregister_store('replaceable')
    a.connector.close()
    b.connector.close()


def test_unregistered_store_not_in_registry():
    store = Store('anon', LocalConnector(), register=False)
    assert get_store('anon') is None
    store.close()


@pytest.mark.parametrize('drop', ['close', 'collect'])
def test_closing_a_replaced_store_leaves_its_successor_registered(drop):
    a = Store('replaced', LocalConnector())
    b = Store('replaced', LocalConnector(), register=False)
    register_store(b, exist_ok=True)
    if drop == 'close':
        a.close()
    else:
        del a
        gc.collect()
    try:
        assert get_store('replaced') is b
    finally:
        unregister_store('replaced')
        b.close()


def test_a_store_rebuilt_from_its_config_unregisters_on_close():
    producer = Store('rebuilt-closes', LocalConnector(), register=False)
    rebuilt = get_or_create_store(producer.config())
    assert get_store('rebuilt-closes') is rebuilt
    rebuilt.close()
    assert get_store('rebuilt-closes') is None
    producer.close()


def test_from_url_rejects_the_removed_coalescing_options():
    with pytest.raises(ValueError, match='coalesce_writes'):
        Store.from_url('local://g30?coalesce_writes=1')
    assert get_store('g30') is None


def test_store_config_roundtrip(tmp_path):
    store = Store('cfg-store', FileConnector(str(tmp_path / 'd')), register=False)
    key = store.put('value')
    config = store.config()
    clone = Store.from_config(config, register=False)
    assert clone.name == store.name
    assert clone.get(key) == 'value'
    store.close(clear=True)
    clone.close()


def test_store_config_dict_roundtrip(local_store):
    config = local_store.config()
    as_dict = config.to_dict()
    restored = type(config).from_dict(as_dict)
    assert restored == config


def test_store_context_manager():
    with Store('ctx-store', LocalConnector()) as store:
        assert get_store('ctx-store') is store
    assert get_store('ctx-store') is None


def test_metrics_recording():
    store = Store('metrics-store', LocalConnector(), metrics=True, register=False)
    key = store.put(np.zeros(128))
    store.get(key)
    store.get(key)  # cache hit
    store.evict(key)
    summary = store.metrics_summary()
    assert summary['put']['count'] == 1
    assert summary['serialize']['count'] == 1
    assert summary['get']['count'] == 1
    assert summary['get_cached']['count'] == 1
    assert summary['evict']['count'] == 1
    assert summary['put']['total_bytes'] > 0
    store.close()


def test_batch_metrics_match_scalar_counterparts():
    """get_batch records deserialize (and hits/misses), proxy_batch records proxy."""
    store = Store('batch-metrics-store', LocalConnector(),
                  metrics=True, cache_size=4, register=False)
    keys = store.put_batch(['a', 'b', 'c'])
    store.cache.clear()
    fetched = store.get_batch(keys + ['missing-key'])
    assert fetched[:3] == ['a', 'b', 'c'] and fetched[3] is None
    store.get_batch(keys)  # all cache hits this time
    proxies = store.proxy_batch(['x', 'y'])
    assert [str(p) for p in proxies] == ['x', 'y']
    summary = store.metrics_summary()
    assert summary['deserialize']['count'] == 1  # one aggregate record per batch
    assert summary['deserialize']['total_bytes'] > 0
    assert summary['get_miss']['count'] == 1
    assert summary['get_cached']['count'] == 3
    assert summary['proxy']['count'] == 2
    assert summary['proxy']['total_bytes'] > 0
    store.close(clear=True)


def test_close_clear_also_clears_local_cache():
    store = Store('close-clear-store', LocalConnector(), register=False)
    key = store.put({'cached': True})
    store.get(key)  # populate the deserialized-object cache
    assert store.is_cached(key)
    store.close(clear=True)
    assert not store.is_cached(key)
    assert len(store.cache) == 0


def test_from_config_warns_about_custom_serializer():
    import pickle as _pickle

    store = Store(
        'custom-ser-store',
        LocalConnector(),
        serializer=_pickle.dumps,
        deserializer=_pickle.loads,
        register=False,
    )
    config = store.config()
    assert config.custom_serializer and config.custom_deserializer
    with pytest.warns(UserWarning, match='custom'):
        clone = Store.from_config(config, register=False)
    clone.close()
    store.close(clear=True)


class ReversingLocalConnector(LocalConnector):
    """Module-level (so import-path-resolvable) subclass with NO own scheme."""

    def put(self, data):
        return super().put(bytes(data)[::-1])

    def get(self, key):
        data = super().get(key)
        return None if data is None else data[::-1]


def test_config_subclass_without_scheme_uses_import_path():
    """A connector subclass that declares no scheme must NOT resolve to its
    base class through the inherited scheme (silent wrong-class rebuild)."""
    store = Store('subclass-cfg-store', ReversingLocalConnector(), register=False)
    config = store.config()
    assert config.scheme is None  # inherited 'local' must not be recorded
    rebuilt = config.make_connector()
    assert type(rebuilt) is ReversingLocalConnector
    key = store.put('payload')
    clone = Store.from_config(config, register=False)
    assert clone.get(key) == 'payload'
    store.close(clear=True)
    clone.close()


def test_get_batch_all_misses_records_no_deserialize():
    store = Store('all-miss-store', LocalConnector(), metrics=True, register=False)
    bogus = [store.connector.new_key(), store.connector.new_key()]
    assert store.get_batch(bogus) == [None, None]
    summary = store.metrics_summary()
    assert 'deserialize' not in summary
    assert summary['get_miss']['count'] == 2
    store.close(clear=True)


def test_metrics_disabled_by_default(local_store):
    local_store.put('x')
    assert local_store.metrics_summary() == {}


def test_repr(local_store):
    assert 'test-local-store' in repr(local_store)


def test_get_batch_consults_cache_before_connector():
    class CountingConnector(LocalConnector):
        def __init__(self):
            super().__init__()
            self.batch_requests: list[int] = []

        def get_batch(self, keys):
            keys = list(keys)
            self.batch_requests.append(len(keys))
            return super().get_batch(keys)

    connector = CountingConnector()
    store = Store('batch-cache-store', connector, cache_size=8, register=False)
    keys = store.put_batch(['a', 'b', 'c'])
    store.get(keys[0])  # now cached
    values = store.get_batch(keys)
    assert values == ['a', 'b', 'c']
    # Only the two uncached keys reached the connector.
    assert connector.batch_requests == [2]
    values = store.get_batch(keys)
    assert values == ['a', 'b', 'c']
    assert connector.batch_requests == [2]  # fully served from cache
    store.close()


def test_cache_stats_reports_resident_bytes():
    store = Store(
        'resident-bytes-store',
        LocalConnector(),
        cache_size=8,
        cache_max_bytes=1024,
        register=False,
    )
    key = store.put(b'x' * 100)
    store.get(key)
    stats = store.cache_stats()
    assert stats['entries'] == 1
    assert stats['resident_bytes'] >= 100
    assert stats['max_bytes'] == 1024
    # An object over the byte bound is returned but never cached.
    big_key = store.put(b'x' * 4096)
    assert store.get(big_key) == b'x' * 4096
    assert not store.is_cached(big_key)
    assert store.cache_stats()['entries'] == 1
    store.close()


def test_cache_max_bytes_round_trips_through_config():
    store = Store(
        'max-bytes-config-store',
        LocalConnector(),
        cache_max_bytes=2048,
        register=False,
    )
    rebuilt = Store.from_config(store.config(), register=False)
    assert rebuilt.cache.max_bytes == 2048
    store.close()
    rebuilt.close()
