"""Serializable description of a Store.

A :class:`StoreConfig` contains everything needed to re-create a Store in a
different process: the store's name, the connector's URI scheme (and, as a
legacy fallback, its import path) plus its ``config()`` dictionary, and the
store options (cache size, metrics).  It is what a
:class:`~repro.store.factory.StoreFactory` carries inside a proxy so that
consumers can transparently reconstruct the producer's Store
(Section 3.5 of the paper).

Connector resolution is **registry-first**: when ``scheme`` is set and names
a registered connector (see :mod:`repro.connectors.registry`), the connector
class comes from the registry; otherwise the legacy ``module:ClassName``
import path in ``connector`` is used.  The fallback keeps configs (and
pickled proxy factories) produced before the scheme registry existed — or by
third-party connectors that never registered a scheme — working unchanged.

A config is a *value*: every factory a Store creates shares the one instance
``Store.config()`` caches, so the dataclass is frozen.  Its compact
:meth:`~StoreConfig.wire` form is what those factories pickle (see
:mod:`repro.store.factory` and "What a proxy carries on the wire" in
``docs/ARCHITECTURE.md``).
"""
from __future__ import annotations

from dataclasses import asdict
from dataclasses import dataclass
from dataclasses import field
from typing import Any

from repro.connectors.protocol import Connector
from repro.connectors.protocol import connector_from_path
from repro.connectors.protocol import connector_path
from repro.connectors.registry import get_connector_class
from repro.exceptions import StoreError
from repro.exceptions import UnknownConnectorSchemeError

__all__ = ['StoreConfig']

# Flag bits of the wire form.  Bits 1, 2, 4 and 256 belong to the factory
# that embeds the config (repro.store.factory); 64 is retired (older compact
# pickles used it for ``coalesce_writes``).  The config's bits stay below
# 256, so only the factory's packed-id bit makes the int take three bytes.
METRICS = 8
CUSTOM_SERIALIZER = 16
CUSTOM_DESERIALIZER = 32
#: ``connector`` is the import path any process derives from ``scheme``.
PATH_FROM_SCHEME = 128
CONFIG_BITS = METRICS | CUSTOM_SERIALIZER | CUSTOM_DESERIALIZER | PATH_FROM_SCHEME

# Non-flag fields that travel as ``name, value`` pairs, and the value each
# takes when absent: what a Store built with default options reports, so
# such a store ships none.
_WIRE_DEFAULTS: dict[str, Any] = {
    'connector': None,
    'cache_size': 16,
    'cache_max_bytes': None,
}


def _path_from_scheme(scheme: str | None) -> str | None:
    """Import path every process can derive from ``scheme`` alone, if any.

    Only the built-in connectors qualify: the registry imports them on
    demand, whereas a third-party scheme exists only where its module was
    imported, so its import path must keep travelling.
    """
    if scheme is None:
        return None
    try:
        connector_cls = get_connector_class(scheme)
    except UnknownConnectorSchemeError:
        return None
    if not connector_cls.__module__.startswith('repro.connectors.'):
        return None
    return connector_path(connector_cls)


def _scheme_of(connector: Any) -> str | None:
    """Return the connector's *own* scheme, never one inherited from a base.

    A subclass of a registered connector that does not declare its own
    ``scheme`` is deliberately not in the registry (see
    ``Connector.__init_subclass__``); recording the inherited scheme here
    would make registry-first resolution silently rebuild the *base* class.
    Instance attributes are honoured first so wrappers (CostedConnector)
    can expose their inner connector's scheme.
    """
    try:
        instance_attrs = vars(connector)
    except TypeError:  # pragma: no cover - __slots__ connectors
        instance_attrs = {}
    if 'scheme' in instance_attrs:
        return instance_attrs['scheme']
    return type(connector).__dict__.get('scheme')


@dataclass(frozen=True)
class StoreConfig:
    """Picklable configuration from which a Store can be rebuilt.

    Attributes:
        name: globally-unique store name used for process-local registration.
        connector: import path of the connector class (``module:ClassName``);
            the legacy fallback used when ``scheme`` is unset or unknown.
        connector_config: the connector's ``config()`` dictionary.
        cache_size: number of deserialized objects the store caches.
        cache_max_bytes: optional resident-byte bound on that cache.
        metrics: whether operation metrics are recorded.
        scheme: URI scheme of the connector; resolved through the connector
            registry first, ahead of the import path.
        custom_serializer: the originating store used a caller-supplied
            serializer, which cannot travel inside a config.
        custom_deserializer: ditto for the deserializer.
    """

    name: str
    connector: str | None = None
    connector_config: dict[str, Any] = field(default_factory=dict)
    cache_size: int = 16
    cache_max_bytes: int | None = None
    metrics: bool = False
    scheme: str | None = None
    custom_serializer: bool = False
    custom_deserializer: bool = False

    @classmethod
    def from_store(cls, store: Any) -> 'StoreConfig':
        """Build a config describing an existing Store instance."""
        return cls(
            name=store.name,
            connector=connector_path(store.connector),
            connector_config=store.connector.config(),
            cache_size=store.cache.maxsize,
            cache_max_bytes=store.cache.max_bytes,
            metrics=store.metrics is not None,
            scheme=_scheme_of(store.connector),
            custom_serializer=getattr(store, '_custom_serializer', False),
            custom_deserializer=getattr(store, '_custom_deserializer', False),
        )

    def make_connector(self) -> Connector:
        """Instantiate the connector described by this config.

        Resolution is registry-first (by ``scheme``) with the legacy import
        path as fallback, so configs pickled before a connector registered a
        scheme — or configs from third-party connectors without one — keep
        working.
        """
        config = dict(self.connector_config)
        if self.scheme is not None:
            try:
                connector_cls = get_connector_class(self.scheme)
            except UnknownConnectorSchemeError:
                pass
            else:
                return connector_cls.from_config(config)
        if self.connector is None:
            raise StoreError(
                f'StoreConfig for {self.name!r} has neither a resolvable '
                'scheme nor a connector import path',
            )
        return connector_from_path(self.connector, config)

    # -- compact wire form ------------------------------------------------ #
    def wire(self) -> tuple[int, tuple[Any, ...]]:
        """Return ``(bits, (name, scheme, connector_config, *pairs))``.

        Booleans travel as flag bits, ``connector`` as one bit when it is
        the path a built-in ``scheme`` resolves to anyway, and the rest as
        flat ``name, value`` pairs only where they differ from a default
        Store's.  Computed once per config: the shared tuple (and the
        constant strings in it) is also what lets a pickled *list* of one
        store's proxies memoize everything but the keys.
        """
        cached = self.__dict__.get('_wire')
        if cached is None:
            bits = (
                (METRICS if self.metrics else 0)
                | (CUSTOM_SERIALIZER if self.custom_serializer else 0)
                | (CUSTOM_DESERIALIZER if self.custom_deserializer else 0)
            )
            values = {name: getattr(self, name) for name in _WIRE_DEFAULTS}
            path = values['connector']
            if path is not None and path == _path_from_scheme(self.scheme):
                bits |= PATH_FROM_SCHEME
                values['connector'] = None
            pairs = [
                item
                for name, value in values.items()
                if value != _WIRE_DEFAULTS[name]
                for item in (name, value)
            ]
            cached = (
                bits,
                (self.name, self.scheme, self.connector_config, *pairs),
            )
            self.__dict__['_wire'] = cached
        return cached

    @classmethod
    def from_wire(
        cls,
        bits: int,
        name: str,
        scheme: str | None,
        connector_config: dict[str, Any],
        *pairs: Any,
    ) -> 'StoreConfig':
        """Inverse of :meth:`wire` (exact, field for field)."""
        fields = dict(_WIRE_DEFAULTS)
        fields.update(zip(pairs[::2], pairs[1::2]))
        if bits & PATH_FROM_SCHEME:
            fields['connector'] = _path_from_scheme(scheme)
        config = cls(
            name=name,
            scheme=scheme,
            connector_config=connector_config,
            metrics=bool(bits & METRICS),
            custom_serializer=bool(bits & CUSTOM_SERIALIZER),
            custom_deserializer=bool(bits & CUSTOM_DESERIALIZER),
            **fields,
        )
        config.__dict__['_wire'] = (
            bits & CONFIG_BITS, (name, scheme, connector_config, *pairs),
        )
        return config

    def __getstate__(self) -> dict[str, Any]:
        # The cached wire form is derived state; a config pickled on its own
        # (stream producers/consumers carry one) ships its fields only.
        state = self.__dict__.copy()
        state.pop('_wire', None)
        return state

    def to_dict(self) -> dict[str, Any]:
        """Return a plain-dict representation (JSON-friendly apart from values)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> 'StoreConfig':
        """Inverse of :meth:`to_dict`."""
        return cls(**data)
