"""A DataSpaces-like tuple-space staging abstraction.

DataSpaces provides a virtual shared object space for coupled workflows:
producers ``put`` named, versioned regions of data into staging servers and
consumers ``get`` them by name/version, possibly blocking until the data
appears.  The real system is built on RDMA RPC (Margo/Mercury); this
reproduction keeps the interaction pattern — staging servers, versioned named
objects, blocking gets — on an in-process server with locks and conditions.
"""
from __future__ import annotations

import threading
from typing import NamedTuple

from repro.exceptions import ConnectorError

__all__ = ['DataSpacesServer', 'DataSpacesClient', 'DSKey']


class DSKey(NamedTuple):
    """A named, versioned object in the shared space."""

    name: str
    version: int


class DataSpacesServer:
    """A staging server holding the shared object space."""

    def __init__(self) -> None:
        self._data: dict[DSKey, bytes] = {}
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        #: Whether the (simulated) staging servers have been bootstrapped; the
        #: first client interaction pays a startup cost in the cost model.
        self.started = False

    def start(self) -> None:
        self.started = True

    def put(self, name: str, version: int, data: bytes) -> DSKey:
        key = DSKey(name, version)
        with self._condition:
            self._data[key] = bytes(data)
            self._condition.notify_all()
        return key

    def get(self, name: str, version: int, *, timeout: float | None = 0.0) -> bytes | None:
        """Return the object, optionally blocking up to ``timeout`` for it to appear."""
        key = DSKey(name, version)
        with self._condition:
            if timeout and key not in self._data:
                self._condition.wait_for(lambda: key in self._data, timeout=timeout)
            return self._data.get(key)

    def exists(self, name: str, version: int) -> bool:
        with self._lock:
            return DSKey(name, version) in self._data

    def remove(self, name: str, version: int) -> None:
        with self._lock:
            self._data.pop(DSKey(name, version), None)

    def latest_version(self, name: str) -> int | None:
        with self._lock:
            versions = [key.version for key in self._data if key.name == name]
            return max(versions) if versions else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class DataSpacesClient:
    """Client handle bound to one staging server."""

    def __init__(self, server: DataSpacesServer) -> None:
        self.server = server
        if not server.started:
            server.start()

    def put(self, name: str, version: int, data: bytes) -> DSKey:
        return self.server.put(name, version, data)

    def get(self, name: str, version: int, *, timeout: float | None = 5.0) -> bytes:
        data = self.server.get(name, version, timeout=timeout)
        if data is None:
            raise ConnectorError(
                f'DataSpaces object {name!r} version {version} not available',
            )
        return data

    def exists(self, name: str, version: int) -> bool:
        return self.server.exists(name, version)
