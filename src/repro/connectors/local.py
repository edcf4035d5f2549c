"""In-process connector backed by a plain dictionary.

``LocalConnector`` keeps objects in the memory of the creating process.  It
is the cheapest possible mediated channel and is used pervasively in tests,
examples, and as the default low-priority fallback in MultiConnector
configurations.  Because the backing dictionary can optionally be shared
(passed in), several LocalConnector instances within a process can present a
single logical store — which is how the simulated multi-process substrates
model "same host" communication.
"""
from __future__ import annotations

import threading
from typing import Any
from typing import Iterable
from typing import Sequence

from repro.connectors.protocol import Connector
from repro.connectors.protocol import ConnectorCapabilities
from repro.connectors.protocol import ConnectorKey
from repro.connectors.protocol import PutData
from repro.connectors.protocol import new_object_id
from repro.connectors.registry import StoreURL
from repro.serialize.buffers import SerializedObject
from repro.serialize.buffers import freeze_payload

__all__ = ['LocalConnector']

# Named in-process stores so that a connector re-created from its config in
# the *same* process (the common test situation) sees the same data.
_GLOBAL_STORES: dict[str, dict[ConnectorKey, Any]] = {}
_GLOBAL_LOCK = threading.Lock()


class LocalConnector(Connector):
    """Connector storing objects in process-local memory.

    Args:
        store_id: optional name of a process-global dictionary to use.  Two
            LocalConnectors created with the same ``store_id`` share data.
            When omitted a fresh anonymous dictionary is used (and a random
            ``store_id`` is generated so ``config()`` round-trips within the
            process).
    """

    connector_name = 'local'
    scheme = 'local'
    capabilities = ConnectorCapabilities(
        storage='memory',
        intra_site=False,
        inter_site=False,
        persistence=False,
        tags=('local', 'testing'),
    )

    def __init__(self, store_id: str | None = None) -> None:
        self.store_id = store_id if store_id is not None else new_object_id()
        with _GLOBAL_LOCK:
            self._store = _GLOBAL_STORES.setdefault(self.store_id, {})
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f'LocalConnector(store_id={self.store_id!r})'

    # -- primary operations --------------------------------------------- #
    def put(self, data: PutData) -> ConnectorKey:
        key = ConnectorKey(object_id=new_object_id(), connector=self.connector_name)
        # freeze_payload keeps immutable bytes (and all-bytes
        # SerializedObjects) by reference: a put of serialized ``bytes``
        # data is stored with zero copies.
        with self._lock:
            self._store[key] = freeze_payload(data)
        return key

    def get(self, key: ConnectorKey) -> 'bytes | SerializedObject | None':
        with self._lock:
            return self._store.get(key)

    def exists(self, key: ConnectorKey) -> bool:
        with self._lock:
            return key in self._store

    def evict(self, key: ConnectorKey) -> None:
        with self._lock:
            self._store.pop(key, None)

    # -- batch operations -------------------------------------------------- #
    def put_batch(self, datas: Sequence[PutData]) -> list[ConnectorKey]:
        keys = [
            ConnectorKey(object_id=new_object_id(), connector=self.connector_name)
            for _ in datas
        ]
        frozen = [freeze_payload(data) for data in datas]
        with self._lock:
            for key, data in zip(keys, frozen):
                self._store[key] = data
        return keys

    def get_batch(self, keys: Iterable[ConnectorKey]) -> list[Any]:
        with self._lock:
            return [self._store.get(key) for key in keys]

    def evict_batch(self, keys: Iterable[ConnectorKey]) -> None:
        with self._lock:
            for key in keys:
                self._store.pop(key, None)

    # -- deferred writes -------------------------------------------------- #
    def new_key(self) -> ConnectorKey:
        return ConnectorKey(object_id=new_object_id(), connector=self.connector_name)

    def set(self, key: ConnectorKey, data: PutData) -> None:
        with self._lock:
            self._store[key] = freeze_payload(data)

    # -- configuration / lifecycle --------------------------------------- #
    def config(self) -> dict[str, Any]:
        return {'store_id': self.store_id}

    @classmethod
    def from_url(cls, url: StoreURL | str) -> 'LocalConnector':
        """Build from ``local://[store_id]`` (empty netloc = anonymous store)."""
        url = StoreURL.parse(url)
        return cls(store_id=url.netloc or None)

    def close(self, clear: bool = False) -> None:
        if clear:
            with _GLOBAL_LOCK:
                _GLOBAL_STORES.pop(self.store_id, None)
            with self._lock:
                self._store = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)
