"""repro: a reproduction of ProxyStore (SC 2023).

ProxyStore decouples control flow from data flow in distributed and federated
Python applications via lazy transparent object proxies.  The top-level
package re-exports the most commonly used pieces of the public API; see
``README.md`` for a tour and ``docs/ARCHITECTURE.md`` for the full system
inventory.
"""
from __future__ import annotations

import importlib
import pkgutil
from typing import Any
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.store import Store

__version__ = '2.2.0'

#: Every re-exported name and the module that defines it.  Resolved on first
#: use (PEP 562), so ``import repro`` — and ``import repro.kvserver``, which
#: is all a storage-server process needs — does not load the store, stream,
#: cluster and connector tiers.
_EXPORTS = {
    'BorrowError': 'repro.exceptions',
    'LifetimeError': 'repro.exceptions',
    'OwnershipError': 'repro.exceptions',
    'UseAfterFreeError': 'repro.exceptions',
    'Factory': 'repro.proxy',
    'OwnedProxy': 'repro.proxy',
    'Proxy': 'repro.proxy',
    'borrow': 'repro.proxy',
    'clone': 'repro.proxy',
    'drop': 'repro.proxy',
    'extract': 'repro.proxy',
    'flush': 'repro.proxy',
    'into_owned': 'repro.proxy',
    'is_owned': 'repro.proxy',
    'is_resolved': 'repro.proxy',
    'mut_borrow': 'repro.proxy',
    'resolve': 'repro.proxy',
    'resolve_async': 'repro.proxy',
    'ContextLifetime': 'repro.store',
    'LeaseLifetime': 'repro.store',
    'Lifetime': 'repro.store',
    'ProxyFuture': 'repro.store',
    'StaticLifetime': 'repro.store',
    'Store': 'repro.store',
    'StoreConfig': 'repro.store',
    'StoreFactory': 'repro.store',
    'get_store': 'repro.store',
    'register_store': 'repro.store',
    'unregister_store': 'repro.store',
    'EventBus': 'repro.stream',
    'LocalEventBus': 'repro.stream',
    'StreamConsumer': 'repro.stream',
    'StreamEvent': 'repro.stream',
    'StreamProducer': 'repro.stream',
    'event_bus_from_url': 'repro.stream',
    'KVEventBus': 'repro.stream.kv',
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(module), name)
    else:
        # ``import repro; repro.store.get_store(...)`` keeps working: a
        # subpackage loads on first attribute access.
        missing = AttributeError(
            f'module {__name__!r} has no attribute {name!r}',
        )
        if name.startswith('_'):
            raise missing
        try:
            value = importlib.import_module(f'{__name__}.{name}')
        except ModuleNotFoundError as e:
            if e.name != f'{__name__}.{name}':
                raise
            raise missing from None
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    subpackages = (module.name for module in pkgutil.iter_modules(__path__))
    return sorted({*globals(), *_EXPORTS, *subpackages})


def store_from_url(url: str, **kwargs: Any) -> Store:
    """Build a :class:`Store` from a URL — the one-liner v2 entry point.

    ``repro.store_from_url('redis://localhost:6379/ns?cache_size=32')`` is
    shorthand for :meth:`Store.from_url`; see that method for the URL
    grammar and keyword arguments.
    """
    from repro.store import Store

    return Store.from_url(url, **kwargs)


__all__ = [
    'BorrowError',
    'ContextLifetime',
    'EventBus',
    'Factory',
    'KVEventBus',
    'LeaseLifetime',
    'Lifetime',
    'LifetimeError',
    'LocalEventBus',
    'OwnedProxy',
    'OwnershipError',
    'Proxy',
    'ProxyFuture',
    'StaticLifetime',
    'Store',
    'StoreConfig',
    'StoreFactory',
    'StreamConsumer',
    'StreamEvent',
    'StreamProducer',
    'UseAfterFreeError',
    'borrow',
    'clone',
    'drop',
    'event_bus_from_url',
    'extract',
    'flush',
    'get_store',
    'into_owned',
    'is_owned',
    'is_resolved',
    'mut_borrow',
    'register_store',
    'resolve',
    'resolve_async',
    'store_from_url',
    'unregister_store',
    '__version__',
]
