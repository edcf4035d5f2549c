"""The ``Store``: the high-level application interface to ProxyStore.

A Store wraps a :class:`~repro.connectors.Connector` (dependency injection)
and adds object (de)serialization, caching of deserialized objects, optional
operation metrics, and — most importantly — the ``proxy()`` method which puts
an object into the mediated channel and returns a lazy transparent
:class:`~repro.proxy.Proxy` whose factory can resolve the object anywhere the
connector is reachable (Section 3.5 of the paper).
"""
from __future__ import annotations

import inspect
import warnings
from time import perf_counter
from typing import Any
from typing import Callable
from typing import Iterable
from typing import Sequence
from typing import TYPE_CHECKING
from typing import TypeVar

from repro.cache.lru import LRUCache
from repro.cluster.attach import ClusterAttachment
from repro.connectors.protocol import Connector
from repro.connectors.protocol import new_object_id
from repro.connectors.registry import StoreURL
from repro.connectors.registry import get_connector_class
from repro.exceptions import LifetimeError
from repro.exceptions import ProxyFutureError
from repro.exceptions import StoreError
from repro.proxy.owned import OwnedProxy
from repro.proxy.proxy import Proxy
from repro.serialize.buffers import payload_nbytes
from repro.serialize.buffers import to_bytes
from repro.serialize.serializer import deserialize as default_deserializer
from repro.serialize.serializer import serialize as default_serializer
from repro.store.config import StoreConfig
from repro.store.factory import StoreFactory
from repro.store.future import ProxyFuture
from repro.store.metrics import StoreMetrics
from repro.store.metrics import Timer
from repro.store.registry import register_store
from repro.store.registry import unregister_store

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.store.lifetimes import Lifetime

T = TypeVar('T')

__all__ = ['Store']

_MISSING = object()


class Store:
    """High-level object store built on a low-level connector.

    Args:
        name: name used to register this store in the process-global registry
            and to share it with proxies resolved in other processes.
        connector: the mediated communication channel to use.
        serializer: optional callable ``obj -> bytes`` overriding the default.
        deserializer: optional callable ``bytes -> obj`` overriding the default.
        cache_size: number of deserialized objects cached per process (0
            disables caching).  Caching happens *after* deserialization so
            repeated proxy resolutions avoid duplicate deserializations.
        cache_max_bytes: optional bound on the estimated resident bytes of
            the deserialized-object cache; objects individually larger than
            the bound are not cached (rather than silently evicting the
            whole working set).
        metrics: record per-operation timing/byte metrics.
        register: automatically register the store globally by name (the
            common case); set to ``False`` for anonymous, short-lived stores.
    """

    def __init__(
        self,
        name: str,
        connector: Connector,
        *,
        serializer: Callable[[Any], bytes] | None = None,
        deserializer: Callable[[bytes], Any] | None = None,
        cache_size: int = 16,
        cache_max_bytes: int | None = None,
        metrics: bool = False,
        register: bool = True,
    ) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError('store name must be a non-empty string')
        if cache_size < 0:
            raise ValueError('cache_size must be non-negative')
        self.name = name
        self.connector = connector
        self._custom_serializer = serializer is not None
        self._custom_deserializer = deserializer is not None
        self.serializer = serializer if serializer is not None else default_serializer
        self.deserializer = (
            deserializer if deserializer is not None else default_deserializer
        )
        self.cache = LRUCache(cache_size, max_bytes=cache_max_bytes)
        self.metrics: StoreMetrics | None = StoreMetrics() if metrics else None
        if self.metrics is not None and hasattr(connector, 'bind_metrics'):
            # Clustered connectors thread per-node health and self-healing
            # events into the same metrics the store's timings land in.
            connector.bind_metrics(self.metrics)
        self._config: StoreConfig | None = None
        self._config_version = 0
        self._registered = False
        self._closed = False
        if register:
            register_store(self, exist_ok=False)
            self._registered = True

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return f'Store(name={self.name!r}, connector={self.connector!r})'

    def __enter__(self) -> 'Store':
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def config(self) -> StoreConfig:
        """Return a picklable config from which an equivalent store can be built.

        One (frozen) instance is cached and shared by every factory this
        store creates.  It is rebuilt only after a clustered connector's
        member list changed (``join_node``/``leave_node``, or a DIM
        connector's ``join_peer``/``leave_peer``), the one thing that moves
        a connector's ``config()``: the store compares
        :attr:`ClusterAttachment.config_version
        <repro.cluster.attach.ClusterAttachment.config_version>` instead of
        calling ``connector.config()`` per proxy.
        """
        version = ClusterAttachment.config_version
        config = self._config
        if config is None or self._config_version != version:
            config = self._config = StoreConfig.from_store(self)
            self._config_version = version
        return config

    @classmethod
    def from_config(cls, config: StoreConfig, *, register: bool = True) -> 'Store':
        """Create a store (and its connector) from a :class:`StoreConfig`.

        A custom serializer/deserializer on the originating store cannot be
        carried inside a config (callables do not round-trip through plain
        dicts); the re-created store silently falling back to the defaults
        can corrupt data, so that situation is loudly warned about.
        """
        if config.custom_serializer or config.custom_deserializer:
            warnings.warn(
                f'store {config.name!r} was created with a custom '
                'serializer/deserializer that cannot be reconstructed from '
                'its config; the new store uses the default implementations',
                UserWarning,
                stacklevel=2,
            )
        return cls(
            config.name,
            config.make_connector(),
            cache_size=config.cache_size,
            cache_max_bytes=config.cache_max_bytes,
            metrics=config.metrics,
            register=register,
        )

    @classmethod
    def from_url(
        cls,
        url: str | StoreURL,
        *,
        name: str | None = None,
        register: bool = True,
        serializer: Callable[[Any], bytes] | None = None,
        deserializer: Callable[[bytes], Any] | None = None,
        wrap_connector: Callable[[Connector], Connector] | None = None,
    ) -> 'Store':
        """Create a store from a URL — the canonical v2 construction API.

        The URL scheme selects the connector through the connector registry
        (``repro.connectors.registry``); the netloc/path/query configure it.
        Store-level options ride along as reserved query parameters::

            Store.from_url('redis://localhost:6379/my-ns?cache_size=32&metrics=1')
            Store.from_url('file:///tmp/proxystore-data?name=bulk-store')
            Store.from_url('local://shared-id')

        Reserved query parameters: ``name``, ``cache_size``,
        ``cache_max_bytes``, ``metrics``, ``register``.  Everything else
        must be consumed by the connector's ``from_url`` — leftovers raise
        ``ValueError`` so typos fail loudly.

        Args:
            url: store URL (or an already-parsed :class:`StoreURL`).
            name: store name; overrides the ``name`` query parameter.  When
                neither is given, a non-empty URL path not consumed by the
                connector (e.g. the ``/ns`` of a redis URL) is used, and
                otherwise a unique name is generated.
            register: register the store globally (the ``register`` query
                parameter overrides this).
            serializer: optional serializer override (not URL-expressible).
            deserializer: optional deserializer override.
            wrap_connector: optional wrapper applied to the connector before
                the store is built — how benchmark harnesses interpose
                cost-accounting (``CostedConnector``) on a URL-built channel.
        """
        parsed = StoreURL.parse(url)
        connector_cls = get_connector_class(parsed.scheme)
        query_name = parsed.pop('name')
        if name is None:
            name = query_name
        cache_size = parsed.pop_int('cache_size', 16)
        assert cache_size is not None
        cache_max_bytes = parsed.pop_int('cache_max_bytes')
        metrics = parsed.pop_bool('metrics', False)
        register = parsed.pop_bool('register', register)
        connector: Connector = connector_cls.from_url(parsed)
        parsed.ensure_consumed()
        if name is None:
            remainder = '' if parsed.path_consumed else parsed.path.strip('/')
            name = remainder or f'{parsed.scheme}-store-{new_object_id()[:8]}'
        if wrap_connector is not None:
            connector = wrap_connector(connector)
        return cls(
            name,
            connector,
            serializer=serializer,
            deserializer=deserializer,
            cache_size=cache_size,
            cache_max_bytes=cache_max_bytes,
            metrics=metrics,
            register=register,
        )

    def close(self, clear: bool = False) -> None:
        """Unregister the store and close its connector.

        Idempotent: a second ``close()`` is a no-op unless it escalates a
        plain close to ``clear=True``, so double-close (e.g. an explicit
        close followed by ``__del__``, or fixture and test both closing)
        never re-tears-down the connector.

        Args:
            clear: also ask the connector to remove all stored objects and
                drop this store's local deserialized-object cache.
        """
        if self._registered:
            unregister_store(self.name, self)
            self._registered = False
        if clear:
            self.cache.clear()
        if not self._closed or clear:
            self.connector.close(clear=clear)
        self._closed = True

    def __del__(self) -> None:
        """Best-effort close so dropped stores release connector resources."""
        try:
            if not getattr(self, '_closed', True):
                self.close()
        except Exception:  # noqa: BLE001 - interpreter teardown
            pass

    def _record(self, operation: str, elapsed: float, nbytes: int = 0) -> None:
        if self.metrics is not None:
            self.metrics.record(operation, elapsed, nbytes)

    # The per-object operations below (put, get, evict, proxy creation)
    # read the clock only when metrics are on — ``timed`` guards in place
    # of a ``Timer`` per step, whose cost shows on 1 KB objects.  Batch and
    # rare operations keep the ``Timer`` form.

    # ------------------------------------------------------------------ #
    # Object-level operations
    # ------------------------------------------------------------------ #
    def put(self, obj: Any, *, serializer: Callable[[Any], bytes] | None = None) -> Any:
        """Serialize ``obj``, store it via the connector, and return its key."""
        return self._store_object(
            obj, serializer=serializer, cache_local=False, connector_kwargs={},
        )[0]

    def put_batch(
        self,
        objs: Sequence[Any],
        *,
        serializer: Callable[[Any], bytes] | None = None,
    ) -> list[Any]:
        """Store several objects with a single connector batch operation."""
        return self._store_batch(objs, serializer=serializer, connector_kwargs={})[0]

    def get(
        self,
        key: Any,
        *,
        default: Any = None,
        deserializer: Callable[[bytes], Any] | None = None,
    ) -> Any:
        """Return the object stored under ``key`` (or ``default`` if absent).

        Deserialized objects are cached per-process, so repeated gets of the
        same key avoid both communication and deserialization.
        """
        cached = self.cache.get(key, default=_MISSING)
        if cached is not _MISSING:
            self._record('get_cached', 0.0)
            return cached
        obj = self._fetch(key, deserializer)
        if obj is _MISSING:
            return default
        self.cache.set(key, obj)
        return obj

    def _fetch(
        self, key: Any, deserializer: Callable[[bytes], Any] | None = None,
    ) -> Any:
        """Read and deserialize ``key`` from the connector (``_MISSING`` if
        absent), leaving the cache alone."""
        deserializer = deserializer if deserializer is not None else self.deserializer
        timed = self.metrics is not None
        start = perf_counter() if timed else 0.0
        data = self.connector.get(key)
        if data is None:
            if timed:
                self._record('get_miss', perf_counter() - start)
            return _MISSING
        if timed:
            nbytes = payload_nbytes(data)
            self._record('get', perf_counter() - start, nbytes)
            start = perf_counter()
        if deserializer is not default_deserializer:
            # The default deserializer reads every buffer form; a custom
            # one is documented to take ``bytes``.
            data = to_bytes(data)
        obj = deserializer(data)
        if timed:
            self._record('deserialize', perf_counter() - start, nbytes)
        return obj

    def _take(self, key: Any, *, default: Any = None) -> Any:
        """Return ``key``'s object (or ``default``) and evict the key.

        What an evict-on-resolve proxy does: a cached value is served from
        the cache, any other is fetched without entering it, since nothing
        can read it there again.  A missing key evicts nothing.
        """
        obj = self.cache.get(key, default=_MISSING)
        if obj is _MISSING:
            obj = self._fetch(key)
            if obj is _MISSING:
                return default
        else:
            self._record('get_cached', 0.0)
        self.evict(key)
        return obj

    def get_batch(
        self,
        keys: Iterable[Any],
        *,
        deserializer: Callable[[bytes], Any] | None = None,
    ) -> list[Any]:
        """Return the objects stored under ``keys`` (``None`` for missing keys)."""
        deserializer = deserializer if deserializer is not None else self.deserializer
        keys = list(keys)
        results: list[Any] = [_MISSING] * len(keys)
        to_fetch: list[tuple[int, Any]] = []
        for i, key in enumerate(keys):
            cached = self.cache.get(key, default=_MISSING)
            if cached is not _MISSING:
                results[i] = cached
                self._record('get_cached', 0.0)
            else:
                to_fetch.append((i, key))
        if to_fetch:
            with Timer() as t_get:
                datas = self.connector.get_batch([key for _, key in to_fetch])
            nbytes = sum(payload_nbytes(d) for d in datas if d is not None)
            self._record('get_batch', t_get.elapsed, nbytes)
            # Batch ops emit the same per-operation metrics as their scalar
            # counterparts: one aggregate deserialize record for the batch
            # (only when something was actually deserialized, matching the
            # scalar get) plus a get_miss per absent key.
            hits = 0
            with Timer() as t_des:
                for (i, key), data in zip(to_fetch, datas):
                    if data is None:
                        results[i] = None
                        self._record('get_miss', 0.0)
                    else:
                        if deserializer is not default_deserializer:
                            data = to_bytes(data)
                        obj = deserializer(data)
                        self.cache.set(key, obj)
                        results[i] = obj
                        hits += 1
            if hits:
                self._record('deserialize', t_des.elapsed, nbytes)
        return [r if r is not _MISSING else None for r in results]

    def exists(self, key: Any) -> bool:
        """Return whether ``key`` is present in the store (or its cache)."""
        if self.cache.exists(key):
            return True
        with Timer() as t:
            found = self.connector.exists(key)
        self._record('exists', t.elapsed)
        return found

    def is_cached(self, key: Any) -> bool:
        """Return whether ``key``'s object is in this process's cache."""
        return self.cache.exists(key)

    def evict(self, key: Any) -> None:
        """Remove ``key`` from both the connector and the local cache."""
        self.cache.evict(key)
        timed = self.metrics is not None
        start = perf_counter() if timed else 0.0
        self.connector.evict(key)
        if timed:
            self._record('evict', perf_counter() - start)

    def evict_batch(self, keys: Iterable[Any]) -> None:
        """Remove several keys with a single connector batch eviction.

        This is the teardown path lifetimes use: one ``evict_batch`` round
        trip per store, recorded under its own ``evict_batch`` metric so
        eviction traffic is attributable.
        """
        keys = list(keys)
        if not keys:
            return
        for key in keys:
            self.cache.evict(key)
        with Timer() as t:
            self.connector.evict_batch(keys)
        self._record('evict_batch', t.elapsed)

    # ------------------------------------------------------------------ #
    # Proxy creation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_lifetime(lifetime: Any, evict: bool) -> None:
        """Reject the contradictory ``evict=True`` + ``lifetime=...`` combo.

        A lifetime promises the key stays alive until the lifetime closes;
        evict-on-resolve destroys it at first use.  Either alone is fine.
        """
        if lifetime is not None and evict:
            raise ValueError(
                'evict=True and lifetime=... are mutually exclusive: a '
                'lifetime-bound key must survive until the lifetime closes',
            )

    def _bind_lifetime(self, lifetime: 'Lifetime', *keys: Any) -> None:
        """Bind freshly stored ``keys`` to ``lifetime``, leak-free.

        The keys were put *before* the bind (their values are only known
        then), so a lifetime that closed in between would otherwise strand
        them in the backing store forever: evict them before re-raising.
        """
        try:
            lifetime.add_key(*keys, store=self)
        except LifetimeError:
            self.evict_batch(keys)
            raise

    def _store_object(
        self,
        obj: Any,
        *,
        serializer: Callable[[Any], bytes] | None,
        cache_local: bool,
        connector_kwargs: dict[str, Any],
    ) -> tuple[Any, int]:
        """Shared serialize/put/metrics pipeline behind every single write.

        Returns ``(key, serialized nbytes)``.
        """
        serializer = serializer if serializer is not None else self.serializer
        timed = self.metrics is not None
        start = perf_counter() if timed else 0.0
        data = serializer(obj)
        nbytes = payload_nbytes(data)
        if timed:
            self._record('serialize', perf_counter() - start, nbytes)
            start = perf_counter()
        if connector_kwargs:
            key = self.connector.put(data, **connector_kwargs)  # type: ignore[call-arg]
        else:
            key = self.connector.put(data)
        if timed:
            self._record('put', perf_counter() - start, nbytes)
        if cache_local:
            self.cache.set(key, obj)
        return key, nbytes

    def _store_batch(
        self,
        objs: Sequence[Any],
        *,
        serializer: Callable[[Any], bytes] | None,
        connector_kwargs: dict[str, Any],
    ) -> tuple[list[Any], list[Any]]:
        """Serialize ``objs`` and write them with one connector ``put_batch``.

        Returns ``(keys, serialized payloads)``.
        """
        serializer = serializer if serializer is not None else self.serializer
        with Timer() as t_ser:
            datas = [serializer(obj) for obj in objs]
        total = sum(payload_nbytes(d) for d in datas)
        self._record('serialize', t_ser.elapsed, total)
        with Timer() as t_put:
            if connector_kwargs:
                keys = self.connector.put_batch(datas, **connector_kwargs)  # type: ignore[call-arg]
            else:
                keys = self.connector.put_batch(datas)
        self._record('put_batch', t_put.elapsed, total)
        return keys, datas

    def proxy(
        self,
        obj: Any,
        *,
        evict: bool = False,
        lifetime: 'Lifetime | None' = None,
        serializer: Callable[[Any], bytes] | None = None,
        cache_local: bool = True,
        **connector_kwargs: Any,
    ) -> Proxy:
        """Store ``obj`` and return a lazy, transparent proxy of it.

        Args:
            obj: the object to proxy.
            evict: evict the stored object when the proxy is first resolved
                (for ephemeral values read exactly once).
            lifetime: a :class:`~repro.store.lifetimes.Lifetime` the stored
                key is bound to; the key is evicted when the lifetime closes.
                Mutually exclusive with ``evict=True``.
            serializer: per-call serializer override.
            cache_local: also place the object in the local cache so that
                resolving the returned proxy in *this* process is free.
            connector_kwargs: forwarded to the connector's ``put`` when it
                supports extra keyword arguments (e.g. MultiConnector
                constraints such as ``subset_tags``); also embedded in the
                proxy's factory so re-stores elsewhere can honour them.
                Raises ``StoreError`` if the connector does not accept them.
        """
        self._validate_lifetime(lifetime, evict)
        if connector_kwargs:
            self._validate_put_kwargs(connector_kwargs)
        key, nbytes = self._store_object(
            obj,
            serializer=serializer,
            cache_local=cache_local and not evict,
            connector_kwargs=connector_kwargs,
        )
        if lifetime is not None:
            self._bind_lifetime(lifetime, key)
        factory: StoreFactory = StoreFactory(
            key, self.config(), evict=evict, connector_kwargs=connector_kwargs,
        )
        return self._timed_proxy(Proxy, factory, nbytes)

    def _timed_proxy(
        self,
        make: Callable[[StoreFactory], Any],
        factory: StoreFactory,
        nbytes: int,
    ) -> Any:
        """Wrap ``factory`` with ``make``, recording a ``proxy`` metric."""
        if self.metrics is None:
            return make(factory)
        with Timer() as t_proxy:
            proxy = make(factory)
        self._record('proxy', t_proxy.elapsed, nbytes)
        return proxy

    def owned_proxy(
        self,
        obj: Any,
        *,
        serializer: Callable[[Any], bytes] | None = None,
        cache_local: bool = True,
        **connector_kwargs: Any,
    ) -> 'OwnedProxy':
        """Store ``obj`` and return an :class:`~repro.proxy.owned.OwnedProxy`.

        The returned proxy owns the stored key: when it is dropped (garbage
        collected, :func:`repro.proxy.owned.drop`-ped, or its ``with`` block
        exits) the key is evicted from the connector.  Use
        :func:`repro.proxy.owned.borrow` / ``mut_borrow`` to share access
        and :func:`~repro.proxy.owned.clone` for an independent copy.
        """
        if connector_kwargs:
            self._validate_put_kwargs(connector_kwargs)
        key, nbytes = self._store_object(
            obj,
            serializer=serializer,
            cache_local=cache_local,
            connector_kwargs=connector_kwargs,
        )
        factory: StoreFactory = StoreFactory(
            key,
            self.config(),
            connector_kwargs=connector_kwargs,
            owned=True,
        )
        return self._timed_proxy(OwnedProxy._from_store, factory, nbytes)

    def _validate_put_kwargs(
        self,
        connector_kwargs: dict[str, Any],
        method: str = 'put',
    ) -> None:
        """Reject ``put`` kwargs the connector would silently drop or choke on.

        Wrapper connectors (e.g. CostedConnector) forward ``**kwargs`` to an
        inner connector, so a ``**kwargs`` signature alone proves nothing —
        follow the ``inner`` chain until a connector with an explicit
        signature is found.  ``method`` selects which operation's signature
        is checked (``put`` for proxies, ``put_batch`` for batch proxies).
        """
        target: Connector = self.connector
        seen: set[int] = set()
        while id(target) not in seen:
            seen.add(id(target))
            try:
                parameters = inspect.signature(getattr(target, method)).parameters
            except (TypeError, ValueError):  # pragma: no cover - builtin puts
                return
            accepts_var_kw = any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters.values()
            )
            if not accepts_var_kw:
                unsupported = sorted(
                    k for k in connector_kwargs if k not in parameters
                )
                if unsupported:
                    raise StoreError(
                        f'connector {type(target).__name__} does not support '
                        f'put keyword arguments {unsupported}; routing '
                        'constraints would be silently lost',
                    )
                return
            inner = getattr(target, 'inner', None)
            if not isinstance(inner, Connector):
                return  # genuinely accepts arbitrary kwargs
            target = inner

    def proxy_batch(
        self,
        objs: Sequence[Any],
        *,
        evict: bool = False,
        lifetime: 'Lifetime | None' = None,
        serializer: Callable[[Any], bytes] | None = None,
        cache_local: bool = True,
        **connector_kwargs: Any,
    ) -> list[Proxy]:
        """Proxy several objects with a single connector batch put.

        Connectors with expensive per-transfer setup (e.g. the Globus
        connector, which starts one transfer task per batch) benefit greatly
        from this over calling :meth:`proxy` in a loop.

        Args:
            objs: the objects to proxy.
            evict: evict each object when its proxy is first resolved.
            lifetime: a :class:`~repro.store.lifetimes.Lifetime` every
                stored key is bound to.  Mutually exclusive with ``evict``.
            serializer: per-call serializer override.
            cache_local: also place the objects in the local cache.
            connector_kwargs: forwarded to the connector's ``put_batch``
                (e.g. MultiConnector routing constraints such as
                ``subset_tags``) and embedded in every proxy's factory, the
                same contract as the scalar :meth:`proxy`.  Raises
                ``StoreError`` if the connector does not accept them.
        """
        self._validate_lifetime(lifetime, evict)
        if connector_kwargs:
            self._validate_put_kwargs(connector_kwargs, method='put_batch')
        keys, datas = self._store_batch(
            objs, serializer=serializer, connector_kwargs=connector_kwargs,
        )
        if lifetime is not None:
            self._bind_lifetime(lifetime, *keys)
        config = self.config()
        proxies: list[Proxy] = []
        for key, obj, data in zip(keys, objs, datas):
            if cache_local and not evict:
                self.cache.set(key, obj)
            # Mirror the scalar proxy() metrics: one timed 'proxy' record
            # per proxy created.
            factory: StoreFactory = StoreFactory(
                key, config, evict=evict, connector_kwargs=connector_kwargs,
            )
            proxies.append(self._timed_proxy(Proxy, factory, payload_nbytes(data)))
        return proxies

    def future(
        self,
        *,
        evict: bool = False,
        lifetime: 'Lifetime | None' = None,
        polling_interval: float = 0.05,
        timeout: float | None = 60.0,
        serializer: Callable[[Any], bytes] | None = None,
        **connector_kwargs: Any,
    ) -> ProxyFuture:
        """Return a :class:`~repro.store.future.ProxyFuture` for a value that
        has not been produced yet.

        The future's :meth:`~repro.store.future.ProxyFuture.proxy` can be
        handed to consumers immediately; it blocks (bounded poll of the
        mediated channel) on first use until the producer calls
        :meth:`~repro.store.future.ProxyFuture.set_result`.  This enables
        producer/consumer pipelining without barrier synchronization.

        Args:
            evict: evict the value when a consumer first resolves it.
            lifetime: a :class:`~repro.store.lifetimes.Lifetime` the
                pre-allocated key is bound to (the eventual value is evicted
                when the lifetime closes).  Mutually exclusive with
                ``evict``.
            polling_interval: seconds between existence polls on the
                consumer side.
            timeout: seconds a consumer waits for the producer before
                raising ``ProxyFutureTimeoutError`` (``None`` = forever).
            serializer: per-future serializer override.
            connector_kwargs: forwarded to the connector's ``new_key`` —
                e.g. MultiConnector routing constraints (``subset_tags``,
                ``superset_tags``), applied without a size bound since the
                value's size is unknown at allocation time.

        Raises:
            ProxyFutureError: if the connector does not support deferred
                writes (``new_key``/``set``).
        """
        self._validate_lifetime(lifetime, evict)
        try:
            if connector_kwargs:
                key = self.connector.new_key(**connector_kwargs)  # type: ignore[call-arg]
            else:
                key = self.connector.new_key()
        except NotImplementedError as e:
            raise ProxyFutureError(
                f'connector {type(self.connector).__name__} does not support '
                'the deferred writes Store.future() requires',
            ) from e
        if lifetime is not None:
            self._bind_lifetime(lifetime, key)
        return ProxyFuture(
            self,
            key,
            evict=evict,
            polling_interval=polling_interval,
            timeout=timeout,
            serializer=serializer,
            lifetime=lifetime,
        )

    def proxy_from_key(
        self,
        key: Any,
        *,
        evict: bool = False,
        lifetime: 'Lifetime | None' = None,
    ) -> Proxy:
        """Return a proxy for an object that is already stored under ``key``.

        Useful when a producer stored the object directly (e.g. with
        :meth:`put` or :meth:`put_batch`) and wants to hand out references
        later without re-serializing the data.  ``lifetime`` binds the
        existing key to a :class:`~repro.store.lifetimes.Lifetime` (mutually
        exclusive with ``evict=True``).
        """
        self._validate_lifetime(lifetime, evict)
        if lifetime is not None:
            lifetime.add_key(key, store=self)
        return Proxy(StoreFactory(key, self.config(), evict=evict))

    def locked_proxy(self, obj: Any, **kwargs: Any) -> Proxy:
        """Return a proxy that is already resolved (never touches the connector).

        This mirrors ProxyStore's non-lazy proxies: the data still gets stored
        (so other consumers may resolve it), but the returned proxy carries
        the target, which is convenient for producers that both use the value
        locally and pass it downstream.
        """
        proxy = self.proxy(obj, **kwargs)
        proxy.__wrapped__ = obj
        return proxy

    # ------------------------------------------------------------------ #
    # Stats helpers
    # ------------------------------------------------------------------ #
    def metrics_summary(self) -> dict[str, dict[str, float]]:
        """Return accumulated metrics as a nested dict (empty if disabled)."""
        if self.metrics is None:
            return {}
        return self.metrics.as_dict()

    def cluster_health(self) -> dict[str, Any]:
        """Cluster membership and per-node health for clustered connectors.

        Returns ``{'clustered': False}`` when the connector has no cluster
        support (or runs in legacy single-copy mode); otherwise the
        connector's membership snapshot: ring nodes, per-node health, and
        the replication engine's self-healing counters.
        """
        health = getattr(self.connector, 'cluster_health', None)
        if health is None:
            return {'clustered': False}
        return health()

    def cache_stats(self) -> dict[str, Any]:
        """Return cache hit/miss and residency statistics for this store."""
        stats = self.cache.stats
        return {
            'hits': stats.hits,
            'misses': stats.misses,
            'evictions': stats.evictions,
            'hit_rate': stats.hit_rate,
            'entries': len(self.cache),
            'resident_bytes': self.cache.resident_bytes,
            'max_bytes': self.cache.max_bytes,
        }
