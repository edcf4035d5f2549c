"""ProxyStore endpoints (PS-endpoints): a ``KVServer`` with a UUID.

A PS-endpoint (Section 4.2.2, Figures 3 and 4 of the paper) is a per-site
object store with ``get``/``set`` that forwards a request for an object held
by another endpoint to that peer, after a relay has brokered an introduction.

* :class:`Endpoint` starts an unmodified :class:`~repro.kvserver.KVServer`
  (its single event-loop thread *is* the paper's single-threaded endpoint)
  and registers ``uuid -> (host, port)`` with the relay.
* A local operation goes through a pooled :class:`~repro.kvserver.KVClient`
  to the endpoint's own server; one whose ``endpoint_id`` names another
  endpoint goes through a pooled ``KVClient`` to that peer's server.  That
  client *is* the peer connection: it pipelines, reconnects by itself, and a
  ``get`` through it returns the value without storing it locally.
* :class:`RelayServer` is an in-process directory that only answers
  introductions; bulk data never crosses it, which its counters show.
"""
from __future__ import annotations

import logging
import threading
import uuid as uuid_module
from typing import Any
from typing import Callable
from typing import NamedTuple

from repro.exceptions import EndpointError
from repro.exceptions import NodeUnavailableError
from repro.exceptions import PeeringError
from repro.exceptions import RelayError
from repro.kvserver import KVClient
from repro.kvserver import KVServer

__all__ = [
    'Endpoint',
    'EndpointKey',
    'RelayServer',
    'get_registered_endpoint',
    'registered_endpoints',
    'reset_endpoint_registry',
]

logger = logging.getLogger(__name__)

Address = tuple[str, int]


class EndpointKey(NamedTuple):
    """Key of an object stored on a PS-endpoint: ``(object_id, endpoint_id)``."""

    object_id: str
    endpoint_id: str


class RelayServer:
    """Directory of running endpoints that brokers peer introductions.

    Stands in for the paper's small public WebSocket relay, which carries a
    few kilobytes of signaling per peer connection.  ``messages_forwarded``
    and ``bytes_forwarded`` count the introductions answered, so tests can
    show the relay is not on the data path.
    """

    def __init__(self, name: str = 'relay') -> None:
        self.name = name
        self._addresses: dict[str, Address] = {}
        self._lock = threading.Lock()
        self.messages_forwarded = 0
        self.bytes_forwarded = 0

    def register(self, address: Address, *, endpoint_uuid: str | None = None) -> str:
        """Record (or replace) ``address`` under the UUID, assigned here if ``None``."""
        endpoint_uuid = endpoint_uuid or uuid_module.uuid4().hex
        with self._lock:
            self._addresses[endpoint_uuid] = address
        return endpoint_uuid

    def unregister(self, endpoint_uuid: str) -> None:
        """Forget ``endpoint_uuid`` (a no-op when it is not registered)."""
        with self._lock:
            self._addresses.pop(endpoint_uuid, None)

    def connected(self, endpoint_uuid: str) -> bool:
        """Return whether ``endpoint_uuid`` is currently registered."""
        with self._lock:
            return endpoint_uuid in self._addresses

    def introduce(self, src_uuid: str, dst_uuid: str) -> Address:
        """Tell ``src_uuid`` where ``dst_uuid`` is; both must be registered."""
        with self._lock:
            if src_uuid not in self._addresses:
                raise RelayError(f'source endpoint {src_uuid!r} is not registered')
            address = self._addresses.get(dst_uuid)
            if address is None:
                raise RelayError(f'destination endpoint {dst_uuid!r} is not registered')
            self.messages_forwarded += 1
            self.bytes_forwarded += len(src_uuid) + len(dst_uuid) + len(repr(address))
        return address

    def __repr__(self) -> str:
        return f'RelayServer(name={self.name!r}, endpoints={len(self._addresses)})'


# Process-global registry of running endpoints, so that a connector re-created
# from its config can find "its" local endpoint (see EndpointConnector).
_ENDPOINTS: dict[str, 'Endpoint'] = {}
_ENDPOINTS_LOCK = threading.Lock()


def get_registered_endpoint(endpoint_uuid: str) -> 'Endpoint | None':
    """Return the running endpoint with this UUID in this process, if any."""
    with _ENDPOINTS_LOCK:
        return _ENDPOINTS.get(endpoint_uuid)


def registered_endpoints() -> list[str]:
    """Return the UUIDs of the endpoints running in this process, sorted."""
    with _ENDPOINTS_LOCK:
        return sorted(_ENDPOINTS)


def reset_endpoint_registry() -> None:
    """Stop and forget every registered endpoint (test isolation)."""
    with _ENDPOINTS_LOCK:
        endpoints = list(_ENDPOINTS.values())
    for endpoint in endpoints:
        endpoint.stop()


class Endpoint:
    """A single PS-endpoint.

    Args:
        name: human-readable endpoint name (e.g. the site it serves).
        relay: the relay server used for introductions to peers.
        endpoint_uuid: reuse an existing UUID; when ``None`` the relay assigns
            one at :meth:`start`.
    """

    def __init__(
        self, name: str, relay: RelayServer, *, endpoint_uuid: str | None = None,
    ) -> None:
        self.name = name
        self.relay = relay
        self.uuid: str | None = endpoint_uuid
        self._server: KVServer | None = None
        self._local: KVClient | None = None
        self._peers: dict[str, KVClient] = {}
        self._peers_lock = threading.Lock()

    def start(self) -> str:
        """Start the server and register with the relay; returns the UUID."""
        if self._server is None:
            server = KVServer()
            host, port = server.start()
            self._server = server
            self._local = KVClient(host, port)
            self.uuid = self.relay.register((host, port), endpoint_uuid=self.uuid)
            with _ENDPOINTS_LOCK:
                _ENDPOINTS[self.uuid] = self
        assert self.uuid is not None
        return self.uuid

    def stop(self) -> None:
        """Deregister, close every pooled client and stop the server."""
        server, self._server = self._server, None
        if server is None:
            return
        assert self.uuid is not None and self._local is not None
        self.relay.unregister(self.uuid)
        with _ENDPOINTS_LOCK:
            _ENDPOINTS.pop(self.uuid, None)
        with self._peers_lock:
            clients, self._peers = [self._local, *self._peers.values()], {}
        for client in clients:
            client.close()
        server.stop()

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._server is not None

    def __enter__(self) -> 'Endpoint':
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f'Endpoint(name={self.name!r}, uuid={str(self.uuid)[:8]!r})'

    def set(self, object_id: str, data, *, endpoint_id: str | None = None) -> None:
        """Store ``data`` on this endpoint, or on the peer ``endpoint_id``."""
        self._call(endpoint_id, KVClient.set, object_id, data)

    def get(self, object_id: str, *, endpoint_id: str | None = None):
        """Return the object's bytes (``None`` if missing); never cached here."""
        return self._call(endpoint_id, KVClient.get, object_id)

    def exists(self, object_id: str, *, endpoint_id: str | None = None) -> bool:
        """Return whether the owning endpoint holds ``object_id``."""
        return self._call(endpoint_id, KVClient.exists, object_id)

    def evict(self, object_id: str, *, endpoint_id: str | None = None) -> None:
        """Delete ``object_id`` on the owning endpoint (a no-op if missing)."""
        self._call(endpoint_id, KVClient.delete, object_id)

    def clear(self) -> None:
        """Remove every object held by this endpoint (one ``FLUSH``)."""
        self._call(None, KVClient.flush)

    def peer_connections(self) -> dict[str, KVClient]:
        """Return a snapshot of the peer clients keyed by remote UUID."""
        with self._peers_lock:
            return dict(self._peers)

    def _call(self, endpoint_id: str | None, op: Callable[..., Any], *args: Any) -> Any:
        """Run ``op`` on the local server or forward it to ``endpoint_id``.

        Forwarding happens here, in the caller's thread, never inside a server's
        event loop: two endpoints forwarding to each other's loops would deadlock.
        """
        local = self._local
        if self._server is None or local is None:
            raise EndpointError(f'endpoint {self.name!r} is not running')
        if endpoint_id is None or endpoint_id == self.uuid:
            return op(local, *args)
        client = self._peer(endpoint_id)
        try:
            return op(client, *args)
        except NodeUnavailableError:
            # The peer may have restarted on a new port: one fresh introduction.
            client = self._peer(endpoint_id, stale=client)
        try:
            return op(client, *args)
        except NodeUnavailableError as e:
            raise PeeringError(f'peer endpoint {endpoint_id[:8]} is unreachable: {e}') from e

    def _peer(self, remote_uuid: str, *, stale: KVClient | None = None) -> KVClient:
        """Return the client to ``remote_uuid``; introduce if absent or ``stale``."""
        assert self.uuid is not None
        with self._peers_lock:
            client = self._peers.get(remote_uuid)
            if client is not None and client is not stale:
                return client
            try:
                host, port = self.relay.introduce(self.uuid, remote_uuid)
            except RelayError as e:
                raise PeeringError(f'no introduction to endpoint {remote_uuid[:8]}: {e}') from e
            how = 'introduced' if client is None else 're-introduced'
            logger.debug('%s: %s to peer %s at %s:%d', self.name, how, remote_uuid[:8], host, port)
            self._peers[remote_uuid] = fresh = KVClient(host, port)
        if client is not None:
            client.close()
        return fresh
