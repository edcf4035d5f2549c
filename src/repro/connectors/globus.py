"""Connector moving objects between sites as files via (simulated) Globus transfer.

Mirrors Section 4.2.1 of the paper: the connector is initialized with a
mapping of *hostname patterns* to ``(endpoint UUID, endpoint path)`` pairs.
``put`` writes the object into the local endpoint's directory and submits one
transfer task per remote endpoint; the key is ``(object_id, task_id)``.  A
consumer resolves the object by matching its own hostname against the
patterns to find its local endpoint directory, waiting for the transfer task
to succeed, and reading the file — raising an error if the transfer failed.

Because every process in this reproduction runs on one machine, the "current
hostname" can be overridden per thread with :func:`set_current_hostname`,
which the benchmarks use to act out the producer and consumer sites.
"""
from __future__ import annotations

import contextvars
import os
import re
import socket
from typing import Any
from typing import NamedTuple
from typing import Sequence

from repro.connectors.protocol import Connector
from repro.connectors.protocol import ConnectorCapabilities
from repro.connectors.protocol import PutData
from repro.connectors.protocol import new_object_id
from repro.connectors.protocol import without_defaults
from repro.connectors.registry import StoreURL
from repro.serialize.buffers import write_payload_to_path
from repro.exceptions import ConnectorError
from repro.exceptions import TransferError
from repro.connectors.globus_service import GlobusTransferService
from repro.connectors.globus_service import get_transfer_service

__all__ = [
    'GlobusConnector',
    'GlobusEndpointMapping',
    'GlobusKey',
    'current_hostname',
    'set_current_hostname',
]

_HOSTNAME: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    'repro_globus_hostname', default=None,
)


def current_hostname() -> str:
    """Return the hostname used for endpoint matching (override-aware)."""
    override = _HOSTNAME.get()
    return override if override is not None else socket.gethostname()


def set_current_hostname(hostname: str | None) -> contextvars.Token:
    """Override the hostname used for endpoint matching in this context.

    Pass ``None`` to fall back to the real hostname.  Returns the token so
    callers can restore the previous value with ``_HOSTNAME.reset(token)``.
    """
    return _HOSTNAME.set(hostname)


class GlobusKey(NamedTuple):
    """Key of a Globus-transferred object: the file name and the transfer task ids."""

    object_id: str
    task_ids: tuple[str, ...]


class GlobusEndpointMapping(NamedTuple):
    """One entry of the hostname-pattern to endpoint mapping."""

    hostname_pattern: str
    endpoint_uuid: str
    endpoint_path: str


class GlobusConnector(Connector):
    """Connector performing inter-site object movement as Globus file transfers.

    Args:
        endpoints: mapping of hostname regular expression to
            ``(endpoint_uuid, endpoint_path)``.  All endpoints must already be
            registered with the transfer service.
        service: transfer service instance; defaults to the process-global
            simulated service.
        transfer_timeout: seconds to wait for a transfer task when resolving.
    """

    connector_name = 'globus'
    scheme = 'globus'
    capabilities = ConnectorCapabilities(
        storage='disk',
        intra_site=True,
        inter_site=True,
        persistence=True,
        tags=('disk', 'bulk-transfer', 'globus'),
    )

    def __init__(
        self,
        endpoints: dict[str, tuple[str, str]],
        *,
        service: GlobusTransferService | None = None,
        transfer_timeout: float = 30.0,
    ) -> None:
        if not endpoints:
            raise ValueError('GlobusConnector requires at least one endpoint mapping')
        self.endpoints = {
            pattern: (uuid, os.path.abspath(path))
            for pattern, (uuid, path) in endpoints.items()
        }
        self.transfer_timeout = transfer_timeout
        self._service = service if service is not None else get_transfer_service()
        for _pattern, (uuid, path) in self.endpoints.items():
            os.makedirs(path, exist_ok=True)

    def __repr__(self) -> str:
        return f'GlobusConnector(endpoints={sorted(self.endpoints)!r})'

    # -- endpoint resolution ----------------------------------------------- #
    def _local_endpoint(self) -> tuple[str, str]:
        """Return ``(uuid, path)`` of the endpoint matching the current hostname."""
        hostname = current_hostname()
        for pattern, entry in self.endpoints.items():
            if re.search(pattern, hostname):
                return entry
        raise ConnectorError(
            f'no Globus endpoint pattern matches hostname {hostname!r} '
            f'(patterns: {sorted(self.endpoints)})',
        )

    def _remote_endpoints(self, local_uuid: str) -> list[tuple[str, str]]:
        seen: set[str] = set()
        remotes: list[tuple[str, str]] = []
        for _pattern, (uuid, path) in self.endpoints.items():
            if uuid != local_uuid and uuid not in seen:
                seen.add(uuid)
                remotes.append((uuid, path))
        return remotes

    # -- primary operations --------------------------------------------- #
    def put(self, data: PutData) -> GlobusKey:
        keys = self.put_batch([data])
        return keys[0]

    def put_batch(self, datas: Sequence[PutData]) -> list[GlobusKey]:
        """Write the objects locally and submit a single transfer per remote endpoint."""
        local_uuid, local_path = self._local_endpoint()
        object_ids = []
        for data in datas:
            object_id = new_object_id()
            # Scatter/gather straight from the payload's segments.
            write_payload_to_path(os.path.join(local_path, object_id), data)
            object_ids.append(object_id)
        task_ids: list[str] = []
        items = [(object_id, object_id) for object_id in object_ids]
        for remote_uuid, _remote_path in self._remote_endpoints(local_uuid):
            task_ids.append(
                self._service.submit_transfer(local_uuid, remote_uuid, items),
            )
        return [
            GlobusKey(object_id=object_id, task_ids=tuple(task_ids))
            for object_id in object_ids
        ]

    def _wait_for_tasks(self, key: GlobusKey) -> None:
        for task_id in key.task_ids:
            self._service.wait(task_id, timeout=self.transfer_timeout)

    def get(self, key: GlobusKey) -> bytes | None:
        _uuid, local_path = self._local_endpoint()
        try:
            self._wait_for_tasks(key)
        except TransferError:
            raise
        path = os.path.join(local_path, key.object_id)
        try:
            with open(path, 'rb') as f:
                return f.read()
        except FileNotFoundError:
            return None

    def exists(self, key: GlobusKey) -> bool:
        _uuid, local_path = self._local_endpoint()
        for task_id in key.task_ids:
            task = self._service.get_task(task_id)
            if not task.done:
                return False
        return os.path.isfile(os.path.join(local_path, key.object_id))

    def evict(self, key: GlobusKey) -> None:
        # Remove the file from every endpoint directory this connector knows of.
        for _pattern, (_uuid, path) in self.endpoints.items():
            try:
                os.unlink(os.path.join(path, key.object_id))
            except FileNotFoundError:
                pass

    # -- configuration / lifecycle --------------------------------------- #
    def config(self) -> dict[str, Any]:
        return without_defaults(self, {
            'endpoints': dict(self.endpoints),
            'transfer_timeout': self.transfer_timeout,
        })

    @classmethod
    def from_url(cls, url: StoreURL | str) -> 'GlobusConnector':
        """Build from ``globus://?endpoint=<pattern>|<uuid>|<path>&...``.

        One repeated ``endpoint`` parameter per site maps a hostname pattern
        to its transfer endpoint; ``transfer_timeout`` tunes resolution waits.
        """
        url = StoreURL.parse(url)
        endpoints: dict[str, tuple[str, str]] = {}
        for entry in url.pop_multi('endpoint'):
            parts = entry.split('|')
            if len(parts) != 3:
                raise ValueError(
                    f'globus endpoint entry {entry!r} is not of the form '
                    '<hostname-pattern>|<endpoint-uuid>|<endpoint-path>',
                )
            pattern, endpoint_uuid, endpoint_path = parts
            endpoints[pattern] = (endpoint_uuid, endpoint_path)
        timeout = url.pop_float('transfer_timeout', 30.0)
        assert timeout is not None
        return cls(endpoints, transfer_timeout=timeout)

    def close(self, clear: bool = False) -> None:
        if clear:
            for _pattern, (_uuid, path) in self.endpoints.items():
                if os.path.isdir(path):
                    for name in os.listdir(path):
                        try:
                            os.unlink(os.path.join(path, name))
                        except OSError:  # pragma: no cover
                            pass
