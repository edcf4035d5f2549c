"""The ``Connector`` protocol: a low-level interface to a mediated channel.

A connector operates on byte strings and keys (Section 3.4 of the paper):
``put`` stores a byte string and returns a unique key, ``get`` retrieves it,
``exists`` checks for it, and ``evict`` removes it.  Connectors additionally
expose ``config()``/``from_config()`` so that a connector — and therefore the
Store wrapping it — can be re-created in a different process from the plain
dictionary embedded in a proxy's factory.

Third-party connectors only need to implement this interface to be
plug-and-play with the rest of the library (Stores, proxies, the
MultiConnector, the FaaS and workflow substrates, and the benchmarks).
"""
from __future__ import annotations

import importlib
import inspect
import os
from abc import ABC
from abc import abstractmethod
from dataclasses import dataclass
from dataclasses import field
from typing import Any
from typing import Iterable
from typing import NamedTuple
from typing import Sequence
from typing import Union

from repro.connectors.registry import StoreURL
from repro.connectors.registry import register_connector
from repro.serialize.buffers import BytesLike
from repro.serialize.buffers import SerializedObject

__all__ = [
    'Connector',
    'ConnectorCapabilities',
    'ConnectorKey',
    'PutData',
    'connector_from_path',
    'connector_path',
    'new_object_id',
    'packed_object_id',
    'without_defaults',
]

PutData = Union[BytesLike, SerializedObject]
"""Payload types accepted by ``Connector.put``/``put_batch``/``set``."""


class ConnectorKey(NamedTuple):
    """Default key type: a unique object id plus the connector's name.

    Individual connectors may define richer key tuples (e.g. the Globus
    connector's ``(object_id, task_id)``); all key types must be hashable and
    picklable so they can be embedded in proxy factories.
    """

    object_id: str
    connector: str


@dataclass(frozen=True)
class ConnectorCapabilities:
    """Static capability description, mirroring Table 1 of the paper.

    Attributes:
        storage: ``'memory'``, ``'disk'``, or ``'hybrid'``.
        intra_site: usable between hosts within one site / LAN.
        inter_site: usable between hosts at different sites (across NATs).
        persistence: objects survive the producing process exiting.
    """

    storage: str = 'memory'
    intra_site: bool = True
    inter_site: bool = False
    persistence: bool = False
    tags: tuple[str, ...] = field(default_factory=tuple)


def new_object_id() -> str:
    """Return a fresh globally-unique object identifier (32 lowercase hex)."""
    return os.urandom(16).hex()


def packed_object_id(object_id: Any) -> bytes | None:
    """The raw bytes a hex ``object_id`` spells, if they spell it back exactly.

    A :func:`new_object_id` packs to its 16 bytes, and ``raw.hex()`` is the
    same str again.  Any id that would not come back equal (upper case, an
    odd length, not hex, not a ``str``) gives ``None`` and travels as it is.
    """
    if type(object_id) is str:
        try:
            raw = bytes.fromhex(object_id)
        except ValueError:
            return None
        if raw.hex() == object_id:
            return raw
    return None


# Constructor defaults per connector class, read once per class.
_DEFAULTS: dict[type, dict[str, Any]] = {}


def without_defaults(connector: 'Connector', config: dict[str, Any]) -> dict[str, Any]:
    """``config`` minus every entry equal to its constructor default.

    For connectors whose ``from_config`` is ``cls(**config)``: an omitted
    argument takes the same default in every process, so leaving it out of
    ``config()`` keeps the dict exact and keeps it off every proxy's wire.
    Entries the constructor has no constant default for (required
    arguments, ``**kwargs`` options) always stay.
    """
    cls = type(connector)
    defaults = _DEFAULTS.get(cls)
    if defaults is None:
        defaults = _DEFAULTS[cls] = {
            name: parameter.default
            for name, parameter in inspect.signature(cls).parameters.items()
            if parameter.default is not parameter.empty
        }
    return {
        name: value
        for name, value in config.items()
        if name not in defaults or value != defaults[name]
    }


def connector_path(connector: 'Connector | type[Connector]') -> str:
    """Return the import path (``module:ClassName``) of a connector class."""
    cls = connector if isinstance(connector, type) else type(connector)
    return f'{cls.__module__}:{cls.__qualname__}'


def connector_from_path(path: str, config: dict[str, Any]) -> 'Connector':
    """Instantiate a connector from an import path and its ``config()`` dict."""
    module_name, _, qualname = path.partition(':')
    module = importlib.import_module(module_name)
    obj: Any = module
    for part in qualname.split('.'):
        obj = getattr(obj, part)
    return obj.from_config(config)


class Connector(ABC):
    """Abstract base class for mediated communication channels.

    Concrete connectors must implement the four primary byte-level operations
    plus ``config``/``from_config``.  Batch operations and ``close`` have
    sensible defaults but may be overridden for efficiency (e.g. the Globus
    connector submits one transfer task per batch).
    """

    #: Human readable connector name used in keys, metrics and reports.
    connector_name: str = 'connector'
    #: URI scheme this connector is addressable under (``Store.from_url``).
    #: Subclasses that set a scheme are automatically registered in the
    #: scheme registry; leave ``None`` for wrapper/abstract connectors.
    scheme: str | None = None
    #: Capability summary (Table 1).
    capabilities: ConnectorCapabilities = ConnectorCapabilities()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Only classes that declare their *own* scheme self-register, so
        # subclassing a registered connector does not steal its scheme.
        scheme = cls.__dict__.get('scheme')
        if scheme:
            register_connector(scheme, cls)

    # -- primary operations --------------------------------------------- #
    @abstractmethod
    def put(self, data: PutData) -> Any:
        """Store ``data`` and return a unique, picklable key.

        ``data`` may be any :data:`PutData`: a ``SerializedObject``'s
        segments are written as they are (the zero-copy data path), and a
        connector that needs one contiguous byte string calls
        :func:`~repro.serialize.buffers.to_bytes` itself.
        """

    @abstractmethod
    def get(self, key: Any) -> 'BytesLike | SerializedObject | None':
        """Return the data stored under ``key`` or ``None`` if absent.

        The result is a bytes-like view (possibly a ``memoryview`` over
        received or memory-mapped data) or a stored ``SerializedObject``;
        :func:`repro.serialize.deserialize` accepts every form.
        """

    @abstractmethod
    def exists(self, key: Any) -> bool:
        """Return whether ``key`` currently maps to stored data."""

    @abstractmethod
    def evict(self, key: Any) -> None:
        """Remove ``key`` and its data (no-op if absent)."""

    # -- deferred writes (ProxyFuture support) ---------------------------- #
    def new_key(self) -> Any:
        """Pre-allocate and return a key that :meth:`set` can later fill.

        Deferred writes exist for one caller only: ``Store.future``, which
        hands out a proxy of an object *before* the object is produced (a
        :class:`~repro.store.future.ProxyFuture`).  Connectors whose keys embed
        information only known at write time cannot support this and keep
        the default, which raises ``NotImplementedError``.
        """
        raise NotImplementedError(
            f'{type(self).__name__} does not support deferred writes',
        )

    def set(self, key: Any, data: PutData) -> None:
        """Store ``data`` under the pre-allocated ``key`` (see :meth:`new_key`)."""
        raise NotImplementedError(
            f'{type(self).__name__} does not support deferred writes',
        )

    # -- configuration / lifecycle --------------------------------------- #
    @abstractmethod
    def config(self) -> dict[str, Any]:
        """Return a picklable dict sufficient to re-create this connector.

        The dict travels inside every proxy of a store on this connector,
        so it should hold only what a fresh process cannot assume: a
        connector rebuilt by ``cls(**config)`` passes its entries through
        :func:`without_defaults`.  It must stay exact:
        ``type(c).from_config(c.config()).config() == c.config()``.
        """

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> 'Connector':
        """Create a connector instance from a ``config()`` dictionary."""
        return cls(**config)  # type: ignore[call-arg]

    @classmethod
    def from_url(cls, url: 'StoreURL | str') -> 'Connector':
        """Create a connector from a parsed store URL (``Store.from_url``).

        Subclasses override this to consume the pieces of the URL they
        understand (netloc, path, query parameters); parameters left
        unconsumed make ``Store.from_url`` raise, so typos fail loudly.
        """
        raise NotImplementedError(
            f'{cls.__name__} cannot be constructed from a URL',
        )

    def close(self, clear: bool = False) -> None:
        """Release connector resources.

        Args:
            clear: also remove all stored objects where that is meaningful.
        """

    # -- batch operations ------------------------------------------------ #
    def put_batch(self, datas: Sequence[PutData]) -> list[Any]:
        """Store several payloads, returning one key per input."""
        return [self.put(data) for data in datas]

    def get_batch(self, keys: Iterable[Any]) -> 'list[BytesLike | SerializedObject | None]':
        """Retrieve several keys, returning ``None`` for any missing key."""
        return [self.get(key) for key in keys]

    def evict_batch(self, keys: Iterable[Any]) -> None:
        """Evict several keys."""
        for key in keys:
            self.evict(key)

    # -- misc ------------------------------------------------------------ #
    def __enter__(self) -> 'Connector':
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return f'{type(self).__name__}()'
