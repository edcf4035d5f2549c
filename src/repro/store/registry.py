"""Process-global registry of Store instances.

Stores are registered by name so that initialization is performed only once
per process, caches are shared, and stateful connector connections are
reused (Section 3.5).  When a proxy created elsewhere is resolved in a
process where no store of that name exists yet, the proxy's factory calls
:func:`get_or_create_store` with the embedded :class:`StoreConfig`, creating
and registering an equivalent Store.
"""
from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.exceptions import StoreExistsError
from repro.store.config import StoreConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.store.store import Store

__all__ = [
    'get_or_create_store',
    'get_store',
    'list_stores',
    'register_store',
    'unregister_all',
    'unregister_store',
]

_REGISTRY: dict[str, 'Store'] = {}
_LOCK = threading.RLock()


def register_store(store: 'Store', exist_ok: bool = False) -> None:
    """Register ``store`` under ``store.name``.

    Raises:
        StoreExistsError: if a different store of the same name exists and
            ``exist_ok`` is false.
    """
    with _LOCK:
        existing = _REGISTRY.get(store.name)
        if existing is not None and existing is not store and not exist_ok:
            raise StoreExistsError(
                f'A store named {store.name!r} is already registered. Pass '
                'exist_ok=True to replace it.',
            )
        _REGISTRY[store.name] = store


def get_store(name: str) -> 'Store | None':
    """Return the registered store named ``name`` or ``None``.

    Lock-free: one ``dict.get`` is atomic, and this is the lookup every
    proxy resolution starts with.
    """
    return _REGISTRY.get(name)


def unregister_store(name: str, store: 'Store | None' = None) -> 'Store | None':
    """Remove and return the registered store named ``name`` (or ``None``).

    With ``store`` given, the entry is removed only if it *is* that store, so
    closing a store that has since been replaced leaves its successor alone.
    """
    with _LOCK:
        if store is not None and _REGISTRY.get(name) is not store:
            return None
        return _REGISTRY.pop(name, None)


def unregister_all() -> None:
    """Clear the registry (primarily for test isolation)."""
    with _LOCK:
        _REGISTRY.clear()


def list_stores() -> list[str]:
    """Return the names of all registered stores."""
    with _LOCK:
        return sorted(_REGISTRY)


def get_or_create_store(config: StoreConfig, register: bool = True) -> 'Store':
    """Return the store named in ``config``, creating and registering it if needed.

    This is the mechanism by which proxies resolve on remote processes: the
    first proxy of a given store to arrive pays the (small) cost of creating
    the connector and store; subsequent proxies reuse them.
    """
    from repro.store.store import Store  # local import to avoid a cycle

    with _LOCK:
        store = _REGISTRY.get(config.name)
        if store is not None:
            return store
        # One rebuild path: every option the config carries (cache byte
        # bound, the custom-serializer warning) applies here too, and a
        # registered store unregisters itself on close.
        return Store.from_config(config, register=register)
