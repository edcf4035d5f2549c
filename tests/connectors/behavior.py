"""Reusable behavioural test mixin applied to every Connector implementation.

Each connector test module subclasses :class:`ConnectorBehavior` and provides
a ``connector`` fixture; the mixin then exercises the full Connector protocol
(put/get/exists/evict, batching, config round-trips) plus the store-level
proxy lifetime contract (pickle round trips, evict-on-resolve, lifetime- and
ownership-driven eviction) so all implementations are held to the same
contract.
"""
from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.connectors.protocol import Connector
from repro.connectors.protocol import connector_from_path
from repro.connectors.protocol import connector_path
from repro.connectors.protocol import new_object_id
from repro.exceptions import UseAfterFreeError
from repro.proxy import borrow
from repro.proxy import drop
from repro.proxy import extract
from repro.proxy import get_factory
from repro.serialize import SerializedObject
from repro.serialize import deserialize
from repro.serialize import serialize
from repro.serialize import small_frame_threshold
from repro.store import ContextLifetime
from repro.store import Store


class ConnectorBehavior:
    """Common contract tests parametrized over connector fixtures."""

    @staticmethod
    def _store(connector: Connector) -> Store:
        """A registered store over the shared connector fixture.

        ``cache_size=0`` so every resolution and existence check really hits
        the connector.  The store is *not* closed by the tests — the
        connector fixture outlives it — and the registry is cleared by the
        suite-wide autouse fixture.
        """
        return Store(
            f'behavior-store-{new_object_id()[:8]}',
            connector,
            cache_size=0,
            register=True,
        )

    def test_put_get_roundtrip(self, connector: Connector):
        data = b'some payload bytes'
        key = connector.put(data)
        assert connector.get(key) == data

    def test_get_missing_returns_none(self, connector: Connector):
        key = connector.put(b'x')
        connector.evict(key)
        assert connector.get(key) is None

    def test_exists(self, connector: Connector):
        key = connector.put(b'value')
        assert connector.exists(key)
        connector.evict(key)
        assert not connector.exists(key)

    def test_evict_missing_is_noop(self, connector: Connector):
        key = connector.put(b'value')
        connector.evict(key)
        connector.evict(key)  # second evict must not raise

    def test_put_empty_bytes(self, connector: Connector):
        key = connector.put(b'')
        assert connector.exists(key)
        assert connector.get(key) == b''

    def test_put_large_payload(self, connector: Connector):
        data = bytes(bytearray(range(256)) * 4096)  # 1 MiB
        key = connector.put(data)
        assert connector.get(key) == data

    def test_distinct_keys_for_identical_data(self, connector: Connector):
        k1 = connector.put(b'same')
        k2 = connector.put(b'same')
        assert k1 != k2
        connector.evict(k1)
        assert connector.get(k2) == b'same'

    def test_put_batch_get_batch(self, connector: Connector):
        datas = [f'item-{i}'.encode() for i in range(5)]
        keys = connector.put_batch(datas)
        assert len(keys) == len(datas)
        assert connector.get_batch(keys) == datas

    def test_get_batch_with_missing_key(self, connector: Connector):
        keys = connector.put_batch([b'a', b'b'])
        connector.evict(keys[0])
        assert connector.get_batch(keys) == [None, b'b']

    def test_evict_batch(self, connector: Connector):
        keys = connector.put_batch([b'a', b'b', b'c'])
        connector.evict_batch(keys)
        assert all(not connector.exists(k) for k in keys)

    def test_put_accepts_buffer_inputs(self, connector: Connector):
        payload = b'buffer input payload'
        for data in (bytearray(payload), memoryview(payload)):
            key = connector.put(data)
            assert bytes(connector.get(key)) == payload

    def test_put_serialized_object_roundtrip(self, connector: Connector):
        # The buffer path every Store.put takes: a multi-segment
        # SerializedObject goes in, the stored bytes deserialize back.
        obj = {'name': 'zc', 'blob': b'x' * 2048, 'n': 7}
        key = connector.put(serialize(obj))
        assert deserialize(connector.get(key)) == obj

    def test_put_serialized_ndarray_roundtrip(self, connector: Connector):
        arr = np.arange(4096, dtype=np.float64).reshape(64, 64)
        key = connector.put(serialize(arr))
        restored = deserialize(connector.get(key))
        assert np.array_equal(restored, arr)
        assert restored.dtype == arr.dtype

    def test_put_batch_serialized_objects(self, connector: Connector):
        objs = [b'raw', 'text', list(range(10))]
        keys = connector.put_batch([serialize(o) for o in objs])
        restored = [deserialize(d) for d in connector.get_batch(keys)]
        assert restored == objs

    def test_put_empty_serialized_payload(self, connector: Connector):
        key = connector.put(serialize(b''))
        data = connector.get(key)
        assert data is not None
        assert deserialize(data) == b''

    def test_put_multi_segment_equals_joined(self, connector: Connector):
        # Above the small-frame threshold so serialize keeps segments.
        serialized = serialize(np.arange(32 * 1024))
        assert isinstance(serialized, SerializedObject)
        key_segments = connector.put(serialized)
        key_joined = connector.put(bytes(serialized))
        assert bytes(connector.get(key_segments)) == bytes(connector.get(key_joined))

    def test_keys_are_picklable(self, connector: Connector):
        key = connector.put(b'data')
        restored = pickle.loads(pickle.dumps(key))
        assert restored == key
        assert connector.get(restored) == b'data'

    def test_config_roundtrip_shares_data(self, connector: Connector):
        key = connector.put(b'shared data')
        clone = type(connector).from_config(connector.config())
        try:
            assert clone.get(key) == b'shared data'
        finally:
            if clone is not connector:
                clone.close()

    def test_connector_path_roundtrip(self, connector: Connector):
        key = connector.put(b'via path')
        path = connector_path(connector)
        clone = connector_from_path(path, connector.config())
        try:
            assert clone.get(key) == b'via path'
        finally:
            if clone is not connector:
                clone.close()

    def test_capabilities_storage_field_valid(self, connector: Connector):
        assert connector.capabilities.storage in ('memory', 'disk', 'hybrid')

    def test_context_manager(self, connector: Connector):
        with connector as c:
            assert c is connector

    # ------------------------------------------------------------------ #
    # Store-level proxy lifetime contract (same across every scheme)
    # ------------------------------------------------------------------ #
    def test_proxy_pickle_roundtrip(self, connector: Connector):
        store = self._store(connector)
        obj = {'scheme': type(connector).__name__, 'payload': list(range(32))}
        proxy = store.proxy(obj, cache_local=False)
        restored = pickle.loads(pickle.dumps(proxy))
        assert extract(restored) == obj
        # A plain proxy never disturbs the stored object.
        assert connector.exists(get_factory(proxy).key)

    def test_proxy_evict_on_resolve(self, connector: Connector):
        store = self._store(connector)
        proxy = store.proxy('read-exactly-once', evict=True, cache_local=False)
        key = get_factory(proxy).key
        assert connector.exists(key)
        assert extract(proxy) == 'read-exactly-once'
        assert not connector.exists(key)

    def test_lifetime_close_evicts_bound_keys(self, connector: Connector):
        store = self._store(connector)
        lifetime = ContextLifetime()
        proxies = [
            store.proxy(f'bound-{i}', lifetime=lifetime, cache_local=False)
            for i in range(3)
        ]
        keys = [get_factory(p).key for p in proxies]
        assert all(connector.exists(k) for k in keys)
        assert extract(proxies[0]) == 'bound-0'  # resolving does not evict
        assert connector.exists(keys[0])
        lifetime.close()
        assert all(not connector.exists(k) for k in keys)

    def test_owned_proxy_drop_leaves_no_key(self, connector: Connector):
        store = self._store(connector)
        owned = store.owned_proxy({'model': 'weights'}, cache_local=False)
        key = get_factory(owned).key
        assert connector.exists(key)
        view = borrow(owned)
        assert extract(view) == {'model': 'weights'}
        drop(owned)
        assert not store.exists(key)
        assert not connector.exists(key)
        # The stale borrow fails with the dedicated ownership error, not a
        # StoreKeyError from a doomed fetch.
        with pytest.raises(UseAfterFreeError):
            view['model']

    # ------------------------------------------------------------------ #
    # Small-object fast path (same wire contract across every scheme)
    # ------------------------------------------------------------------ #
    def test_small_payloads_roundtrip_at_threshold_boundary(
        self, connector: Connector,
    ):
        # One payload per side of the small-frame threshold: the compact
        # bytes frame and the segmented frame must store and resolve
        # identically through every connector.
        store = self._store(connector)
        threshold = small_frame_threshold()
        for size in (1024, threshold - 1, threshold, threshold + 1):
            payload = bytes(range(256)) * (size // 256) + b'x' * (size % 256)
            key = store.put(payload)
            assert store.get(key) == payload, f'size={size}'
            store.evict(key)

    def test_small_proxy_resolves_on_both_routes(self, connector: Connector):
        store = self._store(connector)
        threshold = small_frame_threshold()
        small = 's' * 1024  # compact frame
        large = 'L' * (threshold * 2)  # segmented frame
        for obj in (small, large):
            proxy = store.proxy(obj, cache_local=False)
            assert extract(proxy) == obj
            store.evict(get_factory(proxy).key)
