"""A small content-addressed, peer-to-peer file store (IPFS stand-in).

The paper compares PS-endpoints against IPFS for inter-site transfers: task
data is written to disk, added to IPFS (producing a content id), the content
id is passed with the task, and the consumer retrieves the file by content id
from whichever peer has it.  This module reproduces that flow: nodes store
blocks on disk keyed by the SHA-256 of their content and fetch missing blocks
from the other nodes of their network (a bitswap-like exchange), caching them
locally afterwards.
"""
from __future__ import annotations

import hashlib
import os
import threading

from repro.exceptions import ConnectorError

__all__ = ['IPFSNetwork', 'IPFSNode']


class IPFSNetwork:
    """The set of peers that can exchange blocks with each other."""

    def __init__(self) -> None:
        self._nodes: list['IPFSNode'] = []
        self._lock = threading.Lock()

    def join(self, node: 'IPFSNode') -> None:
        with self._lock:
            if node not in self._nodes:
                self._nodes.append(node)

    def peers_of(self, node: 'IPFSNode') -> list['IPFSNode']:
        with self._lock:
            return [n for n in self._nodes if n is not node]


class IPFSNode:
    """One peer of the content-addressed file system.

    Args:
        data_dir: directory holding this node's blocks.
        network: the peer network to join.
    """

    def __init__(self, data_dir: str, network: IPFSNetwork) -> None:
        self.data_dir = os.path.abspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.network = network
        self.blocks_fetched_from_peers = 0
        network.join(self)

    def _path(self, cid: str) -> str:
        return os.path.join(self.data_dir, cid)

    # -- local block store -------------------------------------------------- #
    def add(self, data: bytes) -> str:
        """Add content and return its content id (the hex SHA-256 digest)."""
        cid = hashlib.sha256(data).hexdigest()
        path = self._path(cid)
        if not os.path.exists(path):
            with open(path, 'wb') as f:
                f.write(data)
        return cid

    def has_local(self, cid: str) -> bool:
        return os.path.isfile(self._path(cid))

    def _read_local(self, cid: str) -> bytes:
        with open(self._path(cid), 'rb') as f:
            return f.read()

    # -- retrieval --------------------------------------------------------------- #
    def get(self, cid: str) -> bytes:
        """Return the content for ``cid``, fetching it from peers if needed.

        Raises:
            ConnectorError: if no peer in the network has the content.
        """
        if self.has_local(cid):
            return self._read_local(cid)
        for peer in self.network.peers_of(self):
            if peer.has_local(cid):
                data = peer._read_local(cid)
                if hashlib.sha256(data).hexdigest() != cid:
                    raise ConnectorError(f'content of block {cid[:12]} failed verification')
                # Fetched blocks are cached locally, as IPFS does.
                with open(self._path(cid), 'wb') as f:
                    f.write(data)
                self.blocks_fetched_from_peers += 1
                return data
        raise ConnectorError(f'content {cid[:12]}... not found on any peer')

    def remove(self, cid: str) -> None:
        try:
            os.unlink(self._path(cid))
        except FileNotFoundError:
            pass

    def __len__(self) -> int:
        return len(os.listdir(self.data_dir))
