"""Factories that resolve proxy targets from a Store.

A :class:`StoreFactory` is what ``Store.proxy()`` embeds inside the proxies
it creates.  It is fully self-contained: it carries the connector key, the
:class:`~repro.store.config.StoreConfig` needed to re-create the Store on any
process, and the evict flag.  Resolution goes through the (possibly freshly
registered) Store so that deserialization caching and metrics apply.

On the wire a factory is one flat positional tuple (``__reduce__``), a few
hundred bytes smaller than its ``__dict__``::

    (flags, attrs, key, key_connector, name, scheme, connector_config, *pairs)

A :class:`~repro.proxy.Proxy` of a plain ``StoreFactory`` pickles to one
call that returns the proxy, ``_proxy(*tuple)`` (or ``_ref(*tuple)`` for
the :class:`~repro.proxy.owned.RefProxy` every ownership-aware proxy
pickles to), through the factory's
:meth:`~repro.proxy.factory.Factory.reduce_proxy` hook.  Any other proxy
type, or a factory subclass, pickles as two calls: the proxy class around
``_load(*tuple)`` (``_load_as(cls, *tuple)`` for a subclass).

``flags`` holds ``evict``/``owned``, whether ``key`` is a plain
:class:`~repro.connectors.protocol.ConnectorKey` travelling as its two bare
fields (richer key types travel whole, with ``key_connector`` ``None``),
whether that plain key's object id is packed, and the config's boolean
fields.  A packed id is the 16 raw bytes a
:func:`~repro.connectors.protocol.new_object_id` spells in 32 hex
characters (:func:`~repro.connectors.protocol.packed_object_id`), which
the loader turns back into the same str; an id that would not come back
exactly travels as it is.  ``attrs`` is ``None`` or a dict of the
factory's own non-default attributes; the rest is
:meth:`StoreConfig.wire() <repro.store.config.StoreConfig.wire>`.  The
consumer side is lazy: an unpickled factory keeps that tail, finds its Store
in the registry by name, and only builds a ``StoreConfig`` on a registry
miss (or when ``store_config`` is read).  ``connector_config`` is the
connector's ``config()``, which leaves out constructor defaults.
"""
from __future__ import annotations

from typing import Any
from typing import TypeVar

from repro.connectors.protocol import ConnectorKey
from repro.connectors.protocol import packed_object_id
from repro.exceptions import StoreKeyError
from repro.proxy.factory import Factory
from repro.proxy.owned import RefProxy
from repro.proxy.proxy import Proxy
from repro.store.config import CONFIG_BITS
from repro.store.config import StoreConfig
from repro.store.registry import get_or_create_store
from repro.store.registry import get_store

T = TypeVar('T')

__all__ = ['StoreFactory']

_MISSING = object()

# Factory-level flag bits of the wire form (the config's start at 8).
_EVICT = 1
_OWNED = 2
_PLAIN_KEY = 4
#: The plain key's object id travels as raw bytes (one more flag byte).
_PACKED_ID = 256


def _load(
    flags: int,
    attrs: dict[str, Any] | None,
    key: Any,
    key_connector: str | None,
    *config_wire: Any,
    cls: 'type[StoreFactory] | None' = None,
) -> 'StoreFactory':
    """Rebuild a factory from its wire tuple (what ``__reduce__`` ships)."""
    self = StoreFactory.__new__(cls or StoreFactory)
    if flags & _PLAIN_KEY:
        key = ConnectorKey(key.hex() if flags & _PACKED_ID else key, key_connector)
    self.key = key
    self.store_name = config_wire[0]
    self.evict = bool(flags & _EVICT)
    self.owned = bool(flags & _OWNED)
    self.connector_kwargs = {}
    self._config = None
    self._config_wire = (flags & CONFIG_BITS, config_wire)
    if attrs:
        self.__dict__.update(attrs)
    return self


def _load_as(cls: 'type[StoreFactory]', *wire: Any) -> 'StoreFactory':
    """:func:`_load` for a subclass, which travels with its class."""
    return _load(*wire, cls=cls)


def _proxy(*wire: Any) -> Proxy:
    """A plain proxy of the factory :func:`_load` rebuilds from ``wire``."""
    return Proxy(_load(*wire))


def _ref(*wire: Any) -> RefProxy:
    """A non-owning :class:`RefProxy` of the factory ``wire`` describes."""
    return RefProxy(_load(*wire))


# The proxy types a plain factory pickles inside its own one call.
_PROXY_LOADERS = {Proxy: _proxy, RefProxy: _ref}


class StoreFactory(Factory[T]):
    """Factory resolving an object from a Store by key.

    Args:
        key: connector key under which the serialized object is stored.
        store_config: configuration from which the Store can be re-created.
        evict: if true, the object is evicted from the store when the factory
            first resolves it (for ephemeral intermediate values).
        connector_kwargs: the connector ``put`` keyword arguments the object
            was originally stored with (e.g. MultiConnector routing
            constraints such as ``subset_tags``).  Carried so any layer that
            re-stores the object (after an evict-on-resolve, or when
            migrating it) can preserve the producer's placement constraints.
        owned: the key's lifetime is managed by exactly one
            :class:`~repro.proxy.owned.OwnedProxy` (which evicts it when the
            owner is dropped).  Mutually exclusive with ``evict`` — an owned
            key must survive resolution so it can be borrowed repeatedly.

    Attributes:
        store_name: the Store's name; unlike ``store_config`` reading it
            never builds anything on an unpickled factory.

    A subclass with attributes of its own extends :meth:`_wire_attrs`
    (class-level defaults stand in for whatever it leaves out).
    """

    def __init__(
        self,
        key: Any,
        store_config: StoreConfig,
        *,
        evict: bool = False,
        connector_kwargs: dict[str, Any] | None = None,
        owned: bool = False,
    ) -> None:
        super().__init__()
        if owned and evict:
            raise ValueError(
                'a StoreFactory cannot be both owned and evict-on-resolve; '
                'ownership manages the key lifetime itself',
            )
        self.key = key
        self.store_name = store_config.name
        self.evict = evict
        self.connector_kwargs = dict(connector_kwargs) if connector_kwargs else {}
        self.owned = owned
        self._config: StoreConfig | None = store_config
        self._config_wire: tuple[int, tuple[Any, ...]] | None = None

    @property
    def store_config(self) -> StoreConfig:
        """The Store's config (built on first read on an unpickled factory)."""
        config = self._config
        if config is None:
            bits, tail = self._config_wire  # type: ignore[misc]
            config = self._config = StoreConfig.from_wire(bits, *tail)
        return config

    # -- pickling / copying ---------------------------------------------- #
    def _wire_attrs(self) -> dict[str, Any]:
        """The factory's own attributes that differ from their defaults."""
        attrs: dict[str, Any] = {}
        if self.connector_kwargs:
            attrs['connector_kwargs'] = self.connector_kwargs
        return attrs

    def _wire(self) -> tuple[Any, ...]:
        """The flat tuple :func:`_load` rebuilds this factory from."""
        config = self._config
        bits, tail = self._config_wire if config is None else config.wire()  # type: ignore[misc]
        if self.evict:
            bits |= _EVICT
        if self.owned:
            bits |= _OWNED
        key = self.key
        if type(key) is not ConnectorKey:
            return (bits, self._wire_attrs() or None, key, None, *tail)
        object_id, connector = key
        raw = packed_object_id(object_id)
        if raw is None:
            bits |= _PLAIN_KEY
        else:
            bits |= _PLAIN_KEY | _PACKED_ID
            object_id = raw
        return (bits, self._wire_attrs() or None, object_id, connector, *tail)

    def __reduce__(self) -> tuple[Any, tuple[Any, ...]]:
        if type(self) is StoreFactory:
            return _load, self._wire()
        return _load_as, (type(self), *self._wire())

    def reduce_proxy(self, proxy_type: type) -> tuple[Any, tuple[Any, ...]] | None:
        """``proxy_type(self)`` as one loader call, for a ``Proxy`` or
        ``RefProxy`` of a plain ``StoreFactory`` (otherwise ``None``)."""
        loader = _PROXY_LOADERS.get(proxy_type) if type(self) is StoreFactory else None
        return None if loader is None else (loader, self._wire())

    def __copy__(self) -> 'StoreFactory[T]':
        duplicate = type(self).__new__(type(self))
        duplicate.__dict__.update(Factory.__getstate__(self))
        return duplicate

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Only pickles written before the wire tuple existed arrive here:
        # they spell out ``__dict__``, ``store_config`` included.
        config = state.pop('store_config')
        self.__dict__.update(state)
        self.store_name = config.name
        self._config = config
        self._config_wire = None

    def __repr__(self) -> str:
        return (
            f'StoreFactory(key={self.key!r}, store={self.store_name!r}, '
            f'evict={self.evict})'
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StoreFactory)
            and self.key == other.key
            and self.store_name == other.store_name
            and self.evict == other.evict
        )

    def __hash__(self) -> int:
        return hash((self.key, self.store_name, self.evict))

    def get_store(self):
        """Return (creating and registering if needed) the Store for this factory."""
        store = get_store(self.store_name)
        if store is None:
            store = get_or_create_store(self.store_config)
        return store

    def resolve(self) -> T:
        """Fetch and deserialize the object from the store (evicting if asked).

        Raises:
            StoreKeyError: if the key no longer exists in the store.
        """
        store = self.get_store()
        if self.evict:
            obj = store._take(self.key, default=_MISSING)
        else:
            obj = store.get(self.key, default=_MISSING)
        if obj is _MISSING:
            raise StoreKeyError(
                f'Object with key {self.key!r} does not exist in store '
                f'{self.store_name!r} (it may have been evicted).',
            )
        return obj  # type: ignore[return-value]

    def resolve_async(self) -> None:
        """Prefetch the object into the store's cache in a background thread.

        The actual object handed to the caller still goes through
        :meth:`resolve` (on the proxy's first use), which will then hit the
        cache, so evict semantics are preserved.
        """
        store = self.get_store()
        if store.is_cached(self.key):
            return
        super().resolve_async()
