"""Connector backed by a (shared) file system directory.

The paper's ``FileConnector`` targets large objects and data that must be
persisted: proxied objects are written as files in a data directory that all
producing and consuming processes can see (e.g. a parallel file system on an
HPC cluster).  Our implementation is identical in behaviour and is fully
functional on a local directory.

Writes are performed atomically (write to a temporary file, then rename) so
that concurrent readers never observe partially written objects.  The write
path is zero-copy: a multi-segment :class:`~repro.serialize.SerializedObject`
is written with ``writev``-style scatter/gather directly from the producer's
buffers, and reads return a ``memoryview`` over an ``mmap`` of the object
file so deserialization slices the page cache instead of a heap copy.
"""
from __future__ import annotations

import mmap
import os
import shutil
import tempfile
import threading
from typing import Any

from repro.connectors.protocol import Connector
from repro.connectors.protocol import ConnectorCapabilities
from repro.connectors.protocol import ConnectorKey
from repro.connectors.protocol import PutData
from repro.connectors.protocol import new_object_id
from repro.connectors.protocol import without_defaults
from repro.connectors.registry import StoreURL
from repro.serialize.buffers import segments_of
from repro.serialize.buffers import write_segments

__all__ = ['FileConnector']

#: Objects smaller than this are read with a plain ``read()`` even when
#: ``mmap_read`` is enabled: each live mapping pins a (dup'ed) file
#: descriptor until the deserialized object is garbage collected, so
#: mapping only large objects keeps many-small-object workloads far away
#: from the fd limit while the bandwidth-bound transfers stay zero-copy.
MMAP_MIN_BYTES = 256 * 1024


class FileConnector(Connector):
    """Connector serializing objects to files in ``store_dir``.

    Args:
        store_dir: directory in which object files are written.  Created if
            it does not exist.
        mmap_read: return ``get`` results as memory-mapped views instead of
            reading the file into a fresh byte string (default on; disable
            for file systems without reliable ``mmap`` support).
    """

    connector_name = 'file'
    scheme = 'file'
    capabilities = ConnectorCapabilities(
        storage='disk',
        intra_site=True,
        inter_site=False,
        persistence=True,
        tags=('disk', 'shared-fs'),
    )

    def __init__(self, store_dir: str, *, mmap_read: bool = True) -> None:
        self.store_dir = os.path.abspath(store_dir)
        self.mmap_read = mmap_read
        os.makedirs(self.store_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._closed = False

    def __repr__(self) -> str:
        return f'FileConnector(store_dir={self.store_dir!r})'

    def _path(self, key: ConnectorKey) -> str:
        return os.path.join(self.store_dir, key.object_id)

    def _write_atomic(self, key: ConnectorKey, data: PutData) -> None:
        path = self._path(key)
        fd, tmp_path = tempfile.mkstemp(dir=self.store_dir, prefix='.tmp-')
        try:
            try:
                write_segments(fd, segments_of(data))
            finally:
                os.close(fd)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):  # pragma: no cover - cleanup path
                os.unlink(tmp_path)
            raise

    # -- primary operations --------------------------------------------- #
    def put(self, data: PutData) -> ConnectorKey:
        key = ConnectorKey(object_id=new_object_id(), connector=self.connector_name)
        self._write_atomic(key, data)
        return key

    def get(self, key: ConnectorKey) -> 'bytes | memoryview | None':
        path = self._path(key)
        try:
            with open(path, 'rb') as f:
                if not self.mmap_read:
                    return f.read()
                size = os.fstat(f.fileno()).st_size
                if size < MMAP_MIN_BYTES:
                    return f.read()
                # The memoryview keeps the mmap alive; on POSIX the mapping
                # stays valid even if the file is later evicted (unlinked).
                mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
                return memoryview(mapped)
        except FileNotFoundError:
            return None

    def exists(self, key: ConnectorKey) -> bool:
        return os.path.isfile(self._path(key))

    def evict(self, key: ConnectorKey) -> None:
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass

    # -- deferred writes -------------------------------------------------- #
    def new_key(self) -> ConnectorKey:
        return ConnectorKey(object_id=new_object_id(), connector=self.connector_name)

    def set(self, key: ConnectorKey, data: PutData) -> None:
        self._write_atomic(key, data)

    # -- configuration / lifecycle --------------------------------------- #
    def config(self) -> dict[str, Any]:
        return without_defaults(
            self, {'store_dir': self.store_dir, 'mmap_read': self.mmap_read},
        )

    @classmethod
    def from_url(cls, url: StoreURL | str) -> 'FileConnector':
        """Build from ``file:///abs/dir[?mmap=0]`` (or ``file://rel/dir``)."""
        url = StoreURL.parse(url)
        store_dir = url.netloc + url.claim_path()
        if not store_dir:
            raise ValueError(f'file URL {url.raw!r} is missing a directory path')
        return cls(store_dir=store_dir, mmap_read=url.pop_bool('mmap', True))

    def close(self, clear: bool = False) -> None:
        with self._lock:
            if clear and os.path.isdir(self.store_dir):
                shutil.rmtree(self.store_dir, ignore_errors=True)
            self._closed = True

    def __len__(self) -> int:
        try:
            return sum(
                1
                for name in os.listdir(self.store_dir)
                if not name.startswith('.tmp-')
            )
        except FileNotFoundError:
            return 0
