"""Future-valued proxies: hand out a proxy *before* the object exists.

``Store.future()`` pre-allocates a connector key (a *deferred write*, see
``Connector.new_key``/``Connector.set``) and returns a :class:`ProxyFuture`.
The producer later fills the key with :meth:`ProxyFuture.set_result`; any
consumer holding the future's :meth:`~ProxyFuture.proxy` blocks — a bounded
poll of the mediated channel — only when (and if) it first touches the
proxy.  This decouples producers from consumers in time as well as in space:
a workflow can wire task N+1's input to task N's not-yet-produced output and
start both immediately, with no barrier synchronization in between
(producer/consumer pipelining).
"""
from __future__ import annotations

import time
from typing import Any
from typing import Callable
from typing import Generic
from typing import TYPE_CHECKING
from typing import TypeVar

from repro.exceptions import ProxyFutureError
from repro.exceptions import ProxyFutureTimeoutError
from repro.proxy.proxy import Proxy
from repro.serialize.buffers import payload_nbytes
from repro.store.factory import StoreFactory
from repro.store.metrics import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.store.store import Store

T = TypeVar('T')

__all__ = ['FutureFactory', 'ProxyFuture']

_MISSING = object()


class _ProducerFailure:
    """Picklable record of a producer-side error, written in place of a result."""

    def __init__(self, message: str) -> None:
        self.message = message

    def __repr__(self) -> str:
        return f'_ProducerFailure({self.message!r})'


class FutureFactory(StoreFactory[T]):
    """Factory that waits (bounded poll) for a deferred key to be written.

    Args:
        key: pre-allocated connector key the producer will fill.
        store_config: configuration from which the Store can be re-created.
        evict: evict the object once resolved (read-exactly-once values).
        polling_interval: seconds between existence checks while waiting.
        timeout: seconds to wait for the producer before giving up
            (``None`` waits forever).
    """

    # Class-level defaults: the wire form ships the two only when they
    # differ (see ``StoreFactory._wire_attrs``).
    polling_interval: float = 0.05
    timeout: float | None = 60.0

    def __init__(
        self,
        key: Any,
        store_config: Any,
        *,
        evict: bool = False,
        polling_interval: float = 0.05,
        timeout: float | None = 60.0,
    ) -> None:
        super().__init__(key, store_config, evict=evict)
        self.polling_interval = polling_interval
        self.timeout = timeout

    def __repr__(self) -> str:
        return (
            f'FutureFactory(key={self.key!r}, store={self.store_name!r}, '
            f'timeout={self.timeout})'
        )

    def _wire_attrs(self) -> dict[str, Any]:
        attrs = super()._wire_attrs()
        for name in ('polling_interval', 'timeout'):
            value = getattr(self, name)
            if value != getattr(FutureFactory, name):
                attrs[name] = value
        return attrs

    def _wait_for_producer(self) -> None:
        store = self.get_store()
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        while not store.exists(self.key):
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ProxyFutureTimeoutError(
                        f'no producer wrote key {self.key!r} to store '
                        f'{self.store_name!r} within {self.timeout}s',
                    )
                time.sleep(min(self.polling_interval, remaining))
            else:
                time.sleep(self.polling_interval)

    def resolve(self) -> T:
        """Block (bounded poll) until the producer writes, then resolve."""
        self._wait_for_producer()
        obj = super().resolve()
        if isinstance(obj, _ProducerFailure):
            raise ProxyFutureError(f'the producer of this proxy failed: {obj.message}')
        return obj


class ProxyFuture(Generic[T]):
    """Producer-side handle for a value that does not exist yet.

    Created by ``Store.future()``.  The producer calls :meth:`set_result`
    (or :meth:`set_exception`) exactly once; consumers obtained a lazy
    :meth:`proxy` — possibly long before — which resolves as soon as the
    write lands.  The future itself is process-local (it holds the store);
    only its proxies are meant to travel.
    """

    def __init__(
        self,
        store: 'Store',
        key: Any,
        *,
        evict: bool = False,
        polling_interval: float = 0.05,
        timeout: float | None = 60.0,
        serializer: Callable[[Any], bytes] | None = None,
        lifetime: Any = None,
    ) -> None:
        self._store = store
        self.key = key
        self.evict = evict
        self.polling_interval = polling_interval
        self.timeout = timeout
        self._serializer = serializer
        self._lifetime = lifetime
        self._done = False

    def __repr__(self) -> str:
        return (
            f'ProxyFuture(key={self.key!r}, store={self._store.name!r}, '
            f'done={self.done()})'
        )

    # -- producer side ----------------------------------------------------- #
    def set_result(self, obj: T) -> None:
        """Serialize ``obj`` and write it under the pre-allocated key."""
        self._write(obj)

    def set_exception(self, error: BaseException) -> None:
        """Record a producer failure; consumers raise ``ProxyFutureError``.

        The error is communicated through the same mediated channel as a
        result would be, so remote consumers see it too.
        """
        self._write(
            _ProducerFailure(f'{type(error).__name__}: {error}'),
            use_custom_serializer=False,
        )

    def _write(self, obj: Any, *, use_custom_serializer: bool = True) -> None:
        if self._done:
            raise ProxyFutureError(
                f'result for key {self.key!r} has already been set',
            )
        # Failure tombstones are exempt from the closed-lifetime guard: a
        # consumer blocked on the future must learn the producer failed
        # rather than poll the evicted key until timeout, and the orphaned
        # tombstone is ~100 bytes versus a lost error cause.
        is_failure = isinstance(obj, _ProducerFailure)
        if (
            not is_failure
            and self._lifetime is not None
            and self._lifetime.done()
        ):
            raise ProxyFutureError(
                f'the lifetime key {self.key!r} was bound to has closed; '
                'the late result was discarded',
            )
        serializer = (
            self._serializer
            if use_custom_serializer and self._serializer is not None
            else self._store.serializer
        )
        with Timer() as t_ser:
            data = serializer(obj)
        nbytes = payload_nbytes(data)
        self._store._record('serialize', t_ser.elapsed, nbytes)
        with Timer() as t_set:
            self._store.connector.set(self.key, data)
        self._store._record('set', t_set.elapsed, nbytes)
        if not self.evict and not is_failure:
            self._store.cache.set(self.key, obj)
        self._done = True
        if (
            not is_failure
            and self._lifetime is not None
            and self._lifetime.done()
        ):
            # Lost the race with the lifetime closing mid-write: its batch
            # eviction saw an empty key, so the write above resurrected it
            # with no owner.  Evict it ourselves and report the loss.
            self._store.evict(self.key)
            raise ProxyFutureError(
                f'the lifetime key {self.key!r} was bound to closed during '
                'the write; the late result was evicted',
            )

    # -- consumer side ------------------------------------------------------ #
    def done(self) -> bool:
        """Return whether the result has been produced (here or elsewhere)."""
        return self._done or self._store.exists(self.key)

    def proxy(self) -> Proxy[T]:
        """Return a lazy proxy of the future's (eventual) value.

        The proxy is picklable and resolvable anywhere the store's connector
        is reachable, exactly like proxies of existing objects — it merely
        also waits for the producer on first use.
        """
        factory: FutureFactory[T] = FutureFactory(
            self.key,
            self._store.config(),
            evict=self.evict,
            polling_interval=self.polling_interval,
            timeout=self.timeout,
        )
        return Proxy(factory)

    def result(self, timeout: float | None = None) -> T:
        """Block until the value is produced and return it (never evicts)."""
        effective = timeout if timeout is not None else self.timeout
        deadline = time.monotonic() + effective if effective is not None else None
        while not self._store.exists(self.key):
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ProxyFutureTimeoutError(
                        f'no producer wrote key {self.key!r} within {effective}s',
                    )
                time.sleep(min(self.polling_interval, remaining))
            else:
                time.sleep(self.polling_interval)
        obj = self._store.get(self.key, default=_MISSING)
        if obj is _MISSING:
            raise ProxyFutureError(
                f'key {self.key!r} disappeared before the result could be read '
                '(evicted by a consumer?)',
            )
        if isinstance(obj, _ProducerFailure):
            raise ProxyFutureError(f'the producer of this future failed: {obj.message}')
        return obj
