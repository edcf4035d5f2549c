"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching unrelated exceptions.
"""
from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ProxyResolveError(ReproError):
    """Raised when a proxy's factory fails to resolve its target object."""


class SerializationError(ReproError):
    """Raised when an object cannot be serialized or deserialized."""


class ConnectorError(ReproError):
    """Base class for connector-level failures."""


class NodeUnavailableError(ConnectorError):
    """Raised when a storage node cannot be reached at all.

    This is deliberately distinct from other :class:`ConnectorError`
    failures: the request itself was fine but the node is gone (crashed,
    stopped, or unreachable), so callers holding replicas elsewhere should
    *retry on another node* rather than treat the operation as corrupt.
    The cluster layer uses it as the replication failover and crash
    detection trigger.
    """


class UnknownConnectorSchemeError(ConnectorError):
    """Raised when a URL scheme does not name a registered connector."""


class ConnectorSchemeExistsError(ConnectorError):
    """Raised when registering a scheme already claimed by a different connector."""


class StoreError(ReproError):
    """Base class for store-level failures."""


class StoreExistsError(StoreError):
    """Raised when registering a store under a name that is already registered."""


class StoreKeyError(StoreError, KeyError):
    """Raised when an object referenced by a proxy no longer exists in the store."""

    def __str__(self) -> str:
        return Exception.__str__(self)


class NoPolicyMatchError(StoreError):
    """Raised by the MultiConnector when no managed connector's policy matches."""


class OwnershipError(StoreError):
    """Base class for proxy ownership and borrow-rule violations."""


class BorrowError(OwnershipError):
    """Raised when a borrow would violate the sharing rules.

    The rules mirror a borrow checker: a proxied object may have many shared
    (read-only) borrows XOR one exclusive mutable borrow at any time, and an
    owner cannot be consumed (e.g. by :func:`~repro.proxy.owned.clone`) while
    a mutable borrow is outstanding.
    """


class UseAfterFreeError(OwnershipError):
    """Raised when a proxy whose backing object was freed is accessed.

    This is deliberately distinct from :class:`StoreKeyError`: the access is
    rejected *before* any store lookup, so callers see an ownership violation
    rather than a confusing stale-fetch failure.
    """


class LifetimeError(StoreError):
    """Raised when a closed :class:`~repro.store.lifetimes.Lifetime` is used."""


class ProxyFutureError(StoreError):
    """Raised for invalid :class:`~repro.store.future.ProxyFuture` usage."""


class ProxyFutureTimeoutError(ProxyFutureError):
    """Raised when a future-backed proxy times out waiting for its producer."""


class StreamGroupError(StoreError):
    """Base class for consumer-group failures on a streaming topic."""


class GroupMembershipError(StreamGroupError, ConnectorError):
    """Raised when a group member's lease expired at the coordinator.

    The broker expired the member after missed heartbeats (e.g. a long GC
    pause or network partition), so its partitions may already be claimed
    by survivors.  The member must rejoin and resync its assignment before
    consuming further; the :class:`~repro.stream.groups.GroupConsumer`
    does this automatically.

    The class derives from **both** :class:`StreamGroupError` and
    :class:`ConnectorError`: lease expiry surfaces at the connector seam
    (the broker rejected the request), but unlike other connector failures
    it is *recoverable by rejoining* rather than by retrying the same call.
    Callers distinguishing "rejoin" from "fatal" should catch this class
    **before** the broader :class:`ConnectorError`.
    """


class TransferError(ReproError):
    """Raised when a simulated or real bulk transfer task fails."""


class EndpointError(ReproError):
    """Base class for PS-endpoint failures."""


class PeeringError(EndpointError):
    """Raised when a peer connection cannot be established or is lost."""


class RelayError(EndpointError):
    """Raised for relay (signaling) server protocol violations."""


class WorkflowError(ReproError):
    """Base class for the workflow (Parsl/Colmena-like) substrate."""
