"""Connector backed by PS-endpoints (Section 4.2.2 of the paper).

Clients interact only with their *local* endpoint; if an operation targets a
key whose ``endpoint_id`` belongs to a different endpoint, the local endpoint
establishes a peer connection and forwards the request (Figure 3).  Keys are
``(object_id, endpoint_id)`` tuples.

The connector is configured with the list of endpoint UUIDs participating in
the application.  Which of them is "local" is decided by, in order: an
explicit ``local_uuid`` argument, the per-context override installed with
:func:`set_local_endpoint` (used by tests and benchmarks to act out different
sites within one process), or the first UUID of the list that corresponds to
a running endpoint in this process.
"""
from __future__ import annotations

import contextvars
from typing import Any
from typing import Sequence

from repro.connectors.protocol import Connector
from repro.connectors.protocol import ConnectorCapabilities
from repro.connectors.protocol import PutData
from repro.connectors.protocol import new_object_id
from repro.connectors.registry import StoreURL
from repro.endpoint import Endpoint
from repro.endpoint import EndpointKey
from repro.endpoint import get_registered_endpoint
from repro.exceptions import EndpointError

__all__ = ['EndpointConnector', 'set_local_endpoint', 'current_local_endpoint']

_LOCAL_ENDPOINT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    'repro_local_endpoint_uuid', default=None,
)


def set_local_endpoint(endpoint_uuid: str | None) -> contextvars.Token:
    """Override which endpoint UUID is considered local in this context."""
    return _LOCAL_ENDPOINT.set(endpoint_uuid)


def current_local_endpoint() -> str | None:
    """Return the current local-endpoint override (or ``None``)."""
    return _LOCAL_ENDPOINT.get()


class EndpointConnector(Connector):
    """Connector storing objects on the local PS-endpoint.

    Args:
        endpoints: UUIDs of all endpoints participating in the application.
        local_uuid: explicitly pin the local endpoint (optional).
    """

    connector_name = 'endpoint'
    scheme = 'endpoint'
    capabilities = ConnectorCapabilities(
        storage='hybrid',
        intra_site=True,
        inter_site=True,
        persistence=True,
        tags=('endpoint', 'peer-to-peer'),
    )

    def __init__(self, endpoints: Sequence[str], *, local_uuid: str | None = None) -> None:
        if not endpoints:
            raise ValueError('EndpointConnector requires at least one endpoint UUID')
        self.endpoints = list(endpoints)
        self._pinned_local = local_uuid

    def __repr__(self) -> str:
        return f'EndpointConnector(endpoints={[u[:8] for u in self.endpoints]!r})'

    # -- local endpoint discovery ------------------------------------------ #
    def _local_endpoint(self) -> Endpoint:
        candidates: list[str] = []
        if self._pinned_local is not None:
            candidates.append(self._pinned_local)
        override = _LOCAL_ENDPOINT.get()
        if override is not None:
            candidates.append(override)
        candidates.extend(self.endpoints)
        for uuid in candidates:
            endpoint = get_registered_endpoint(uuid)
            if endpoint is not None and endpoint.running:
                return endpoint
        raise EndpointError(
            'no running endpoint found for this connector (checked '
            f'{[u[:8] for u in candidates]})',
        )

    # -- primary operations --------------------------------------------- #
    def put(self, data: PutData) -> EndpointKey:
        endpoint = self._local_endpoint()
        object_id = new_object_id()
        endpoint.set(object_id, data)
        assert endpoint.uuid is not None
        return EndpointKey(object_id=object_id, endpoint_id=endpoint.uuid)

    def get(self, key: EndpointKey) -> bytes | None:
        endpoint = self._local_endpoint()
        return endpoint.get(key.object_id, endpoint_id=key.endpoint_id)

    def exists(self, key: EndpointKey) -> bool:
        endpoint = self._local_endpoint()
        return endpoint.exists(key.object_id, endpoint_id=key.endpoint_id)

    def evict(self, key: EndpointKey) -> None:
        endpoint = self._local_endpoint()
        endpoint.evict(key.object_id, endpoint_id=key.endpoint_id)

    # -- deferred writes -------------------------------------------------- #
    def new_key(self) -> EndpointKey:
        endpoint = self._local_endpoint()
        assert endpoint.uuid is not None
        return EndpointKey(object_id=new_object_id(), endpoint_id=endpoint.uuid)

    def set(self, key: EndpointKey, data: PutData) -> None:
        # The producer may by now be "running" on a different endpoint than
        # the one the key was allocated on; route the write to the key's
        # endpoint through the peer machinery.
        endpoint = self._local_endpoint()
        endpoint.set(key.object_id, data, endpoint_id=key.endpoint_id)

    # -- configuration / lifecycle --------------------------------------- #
    def config(self) -> dict[str, Any]:
        return {'endpoints': list(self.endpoints)}

    @classmethod
    def from_url(cls, url: StoreURL | str) -> 'EndpointConnector':
        """Build from ``endpoint://uuid1,uuid2[/name][?local=uuid]``.

        Participating endpoint UUIDs are listed comma-separated in the
        netloc (repeated ``uuid=`` query parameters also work); ``local``
        pins the local endpoint.
        """
        url = StoreURL.parse(url)
        uuids = [u for u in url.netloc.split(',') if u]
        uuids.extend(url.pop_multi('uuid'))
        return cls(uuids, local_uuid=url.pop('local'))

    def close(self, clear: bool = False) -> None:
        if clear:
            endpoint = None
            try:
                endpoint = self._local_endpoint()
            except EndpointError:
                return
            endpoint.clear()
