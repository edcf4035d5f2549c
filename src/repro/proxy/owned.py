"""Ownership and borrowing for store-backed proxies.

A plain :class:`~repro.proxy.Proxy` created by ``Store.proxy()`` leaves the
lifetime of the proxied key to the application: the key either outlives every
consumer (leaking storage under sustained traffic) or is destroyed on first
resolve (``evict=True``, which breaks as soon as two consumers share the
proxy).  This module closes that gap with borrow-checker-style ownership:

* :class:`OwnedProxy` — there is exactly one owner of the backing key.  When
  the owner is dropped (garbage collected, :func:`drop`-ped, or its context
  manager exits) the key is evicted from the store.  Accessing any view of
  the data afterwards raises :class:`~repro.exceptions.UseAfterFreeError`.
* :func:`borrow` / :func:`mut_borrow` — create :class:`RefProxy` /
  :class:`RefMutProxy` views.  Many shared (read-only) borrows XOR one
  exclusive mutable borrow may exist at a time; violations raise
  :class:`~repro.exceptions.BorrowError`.
* :func:`clone` — copy the target into a new key with its own owner.
* :func:`into_owned` — upgrade a legacy, unowned proxy to an ``OwnedProxy``.

Pickling an ``OwnedProxy`` (or any borrow) ships a *non-owning*
:class:`RefProxy`, so communicating a proxy to another process never
duplicates ownership: the producing process remains responsible for the
key's lifetime.
"""
from __future__ import annotations

import copy as copy_module
import threading
from typing import Any
from typing import TypeVar

from repro.exceptions import BorrowError
from repro.exceptions import OwnershipError
from repro.exceptions import UseAfterFreeError
from repro.proxy.proxy import Proxy
from repro.proxy.proxy import UNRESOLVED
from repro.proxy.proxy import _do_resolve
from repro.proxy.proxy import _reduce_as
from repro.proxy.proxy import get_factory

T = TypeVar('T')

__all__ = [
    'OwnedProxy',
    'RefMutProxy',
    'RefProxy',
    'borrow',
    'clone',
    'drop',
    'flush',
    'into_owned',
]


# One lock guards all ownership transitions.  The critical sections are a
# few instructions, so sharing a module-level lock is contention-free in
# practice and keeps per-proxy construction (the <5% overhead budget of
# benchmarks/bench_proxy_ops.py) from paying a lock allocation each time.
# Reentrant on purpose: RefProxy.__del__ releases a borrow, and a GC pass
# can run it on the very thread that currently holds the lock.
_TRANSITIONS = threading.RLock()


class _Ownership:
    """Mutable bookkeeping shared by one owner and all of its borrows.

    Tracks the borrow state (shared reader count XOR one exclusive writer)
    and whether the backing key has been freed.  All transitions are guarded
    by the module lock: proxies routinely cross thread boundaries in this
    codebase (task servers, prefetching factories).
    """

    __slots__ = ('key', 'store_config', 'shared', 'mut', 'freed')

    def __init__(self, key: Any, store_config: Any) -> None:
        self.key = key
        self.store_config = store_config
        self.shared = 0
        self.mut = False
        self.freed = False

    def check_valid(self) -> None:
        if self.freed:
            where = (
                f'key {self.key!r} in store {self.store_config.name!r}'
                if self.store_config is not None
                else 'the proxied key'
            )
            raise UseAfterFreeError(
                f'{where} was freed when its owner was dropped; this proxy '
                'is no longer usable',
            )

    def add_shared(self) -> None:
        with _TRANSITIONS:
            self.check_valid()
            if self.mut:
                raise BorrowError(
                    f'key {self.key!r} is exclusively (mutably) borrowed; '
                    'shared borrows must wait for the mutable borrow to be '
                    'dropped',
                )
            self.shared += 1

    def add_mut(self) -> None:
        with _TRANSITIONS:
            self.check_valid()
            if self.mut:
                raise BorrowError(
                    f'key {self.key!r} is already mutably borrowed',
                )
            if self.shared:
                raise BorrowError(
                    f'key {self.key!r} has {self.shared} outstanding shared '
                    'borrow(s); a mutable borrow requires exclusive access',
                )
            self.mut = True

    def release_shared(self) -> None:
        with _TRANSITIONS:
            if self.shared > 0:
                self.shared -= 1

    def release_mut(self) -> None:
        with _TRANSITIONS:
            self.mut = False

    def free(self) -> None:
        """Evict the backing key and invalidate every outstanding view.

        Idempotent, and deliberately swallows store errors: the finalizer may
        run at interpreter shutdown or after the connector was closed, when
        there is nothing useful left to do with a failure.
        """
        with _TRANSITIONS:
            if self.freed:
                return
            self.freed = True
        _evict_key(self)  # records carry .key/.store_config like a factory


def _evict_key(factory: Any) -> None:
    """Best-effort eviction of a factory's key (drop/GC cleanup path)."""
    try:
        from repro.store.registry import get_or_create_store

        get_or_create_store(factory.store_config).evict(factory.key)
    except Exception:  # noqa: BLE001 - interpreter teardown, closed store
        pass


# Shared terminal record installed on explicitly drop()-ped owners whose
# borrow record was never materialized: any later access must still raise
# UseAfterFreeError, but there is no per-key state left worth allocating.
_FREED = _Ownership(None, None)
_FREED.freed = True


def _unowned_factory(factory: Any) -> Any:
    """Return a copy of ``factory`` with the ownership flag cleared."""
    duplicate = copy_module.copy(factory)
    if getattr(duplicate, 'owned', False):
        duplicate.owned = False
    return duplicate


class _TrackedProxy(Proxy[T]):
    """Base for proxies whose access is gated by an :class:`_Ownership` record.

    Subclasses attach the record with ``object.__setattr__`` (the transparent
    proxy machinery forwards normal attribute writes to the target) and every
    resolution re-validates it, so a freed key fails fast with
    :class:`UseAfterFreeError` instead of a stale store fetch.
    """

    __slots__ = ('__ownership__', '__weakref__')

    def __init__(self, factory: Any, record: _Ownership | None) -> None:
        super().__init__(factory)
        object.__setattr__(self, '__ownership__', record)

    # The base Proxy resolves through this property from every forwarded
    # special method, so checking here covers all access paths at once.
    # The freed flag is read inline (check_valid only on failure) to keep
    # the per-access overhead of ownership tracking in the noise.
    @property
    def __wrapped__(self) -> T:
        record = object.__getattribute__(self, '__ownership__')
        if record is not None and record.freed:
            record.check_valid()
        return _do_resolve(self)

    @__wrapped__.setter
    def __wrapped__(self, value: T) -> None:
        object.__setattr__(self, '__target__', value)

    @__wrapped__.deleter
    def __wrapped__(self) -> None:
        object.__setattr__(self, '__target__', UNRESOLVED)

    # Duplicating a tracked proxy with copy.copy would bypass the borrow
    # bookkeeping (an untracked second owner or borrow), so reject it and
    # point at the explicit alternatives.
    def __copy__(self):
        raise OwnershipError(
            f'{type(self).__name__} cannot be copied; use borrow()/'
            'mut_borrow() for views or clone() for an independent copy',
        )

    def __deepcopy__(self, memo):
        raise OwnershipError(
            f'{type(self).__name__} cannot be deep-copied; use clone() for '
            'an independent copy of the target',
        )

    # Pickling any ownership-aware proxy ships a plain non-owning RefProxy:
    # ownership and borrow counts are process-local and must never silently
    # duplicate across processes.
    def __reduce__(self):
        factory = object.__getattribute__(self, '__factory__')
        if getattr(factory, 'owned', False):
            factory = _unowned_factory(factory)
        return _reduce_as(RefProxy, factory)

    def __reduce_ex__(self, protocol: int):
        return self.__reduce__()


class OwnedProxy(_TrackedProxy[T]):
    """A proxy that owns its backing key.

    Created by ``Store.owned_proxy()`` (or :func:`into_owned`).  The key is
    evicted from the store when the owner is dropped: explicitly with
    :func:`drop`, at context-manager exit, or implicitly when the proxy is
    garbage collected.  Live borrows are invalidated by the drop and raise
    :class:`UseAfterFreeError` on their next access.

    Entering the proxy as a context manager returns the proxy itself and
    drops ownership on exit (this intentionally shadows forwarding
    ``__enter__``/``__exit__`` to the target).
    """

    __slots__ = ()

    def __init__(self, factory: Any, *, _record: _Ownership | None = None) -> None:
        key = getattr(factory, 'key', None)
        store_config = getattr(factory, 'store_config', None)
        if key is None or store_config is None:
            raise OwnershipError(
                'an OwnedProxy requires a store-backed factory carrying '
                f'.key and .store_config, got {type(factory).__name__}',
            )
        if getattr(factory, 'evict', False):
            raise OwnershipError(
                'an OwnedProxy cannot wrap an evict-on-resolve factory; the '
                'owner manages the key lifetime itself',
            )
        if hasattr(factory, 'owned') and not factory.owned:
            # Copy before flipping the flag: the caller may share this
            # factory with other proxies that must stay unowned.
            factory = copy_module.copy(factory)
            factory.owned = True
        super().__init__(factory, _record)

    @classmethod
    def _from_store(cls, factory: Any) -> 'OwnedProxy[T]':
        """Fast-path construction for ``Store.owned_proxy``.

        The store built ``factory`` itself (``owned=True``, no evict), so
        the defensive validation in ``__init__`` is skipped.  The ownership
        record stays ``None`` until the first borrow materializes it: an
        owner that is never borrowed — the common case — pays nothing
        beyond one extra slot write, which is what keeps the create path
        inside the <5% overhead budget of benchmarks/bench_proxy_ops.py.
        """
        self = cls.__new__(cls)
        object.__setattr__(self, '__factory__', factory)
        object.__setattr__(self, '__target__', UNRESOLVED)
        object.__setattr__(self, '__ownership__', None)
        return self

    # Cleanup rides on __del__ rather than weakref.finalize: a finalize
    # registration costs more than the whole rest of construction.  free()
    # is idempotent and swallows teardown-time errors.
    def __del__(self) -> None:
        try:
            record = object.__getattribute__(self, '__ownership__')
            if record is not None:
                record.free()
                return
            factory = object.__getattribute__(self, '__factory__')
        except Exception:  # noqa: BLE001 - partially-constructed proxy
            return
        _evict_key(factory)

    def __enter__(self) -> 'OwnedProxy[T]':
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        drop(self)


class RefProxy(_TrackedProxy[T]):
    """A shared (read-only by convention) borrow of an owned key.

    A ``RefProxy`` unpickled in another process carries no ownership record:
    it is a plain reference whose validity is only known to the store.
    """

    __slots__ = ()

    def __init__(self, factory: Any, *, _record: _Ownership | None = None) -> None:
        super().__init__(factory, _record)

    def __del__(self) -> None:
        try:
            record = object.__getattribute__(self, '__ownership__')
        except Exception:  # noqa: BLE001 - partially-constructed proxy
            return
        if record is not None:
            record.release_shared()


class RefMutProxy(_TrackedProxy[T]):
    """The single exclusive (mutable) borrow of an owned key.

    While a ``RefMutProxy`` is live no other borrow may be taken.  Mutations
    happen on the in-process target; :func:`flush` writes them back to the
    store under the same key.
    """

    __slots__ = ()

    def __init__(self, factory: Any, *, _record: _Ownership | None = None) -> None:
        super().__init__(factory, _record)

    def __del__(self) -> None:
        try:
            record = object.__getattribute__(self, '__ownership__')
        except Exception:  # noqa: BLE001 - partially-constructed proxy
            return
        if record is not None:
            record.release_mut()


def _record_of(proxy: Any, operation: str) -> _Ownership:
    """Return ``proxy``'s ownership record, materializing it if lazy."""
    # type()-based check: isinstance() on a non-matching proxy falls back
    # to the transparent __class__ property, resolving it as a side effect.
    if not issubclass(type(proxy), OwnedProxy):
        raise OwnershipError(
            f'{operation} requires an OwnedProxy, got {type(proxy).__name__}',
        )
    with _TRANSITIONS:
        record = object.__getattribute__(proxy, '__ownership__')
        if record is None:
            factory = object.__getattribute__(proxy, '__factory__')
            record = _Ownership(factory.key, factory.store_config)
            object.__setattr__(proxy, '__ownership__', record)
        return record


def borrow(proxy: 'OwnedProxy[T]') -> 'RefProxy[T]':
    """Take a shared borrow of ``proxy``.

    Any number of shared borrows may coexist, but not alongside a mutable
    borrow.  The borrow resolves lazily through the same store factory and
    becomes invalid (raising :class:`UseAfterFreeError`) once the owner is
    dropped.
    """
    record = _record_of(proxy, 'borrow()')
    record.add_shared()
    factory = _unowned_factory(get_factory(proxy))
    return RefProxy(factory, _record=record)


def mut_borrow(proxy: 'OwnedProxy[T]') -> 'RefMutProxy[T]':
    """Take the exclusive mutable borrow of ``proxy``.

    Fails with :class:`BorrowError` while any other borrow is outstanding.
    """
    record = _record_of(proxy, 'mut_borrow()')
    record.add_mut()
    factory = _unowned_factory(get_factory(proxy))
    return RefMutProxy(factory, _record=record)


def clone(proxy: 'OwnedProxy[T]') -> 'OwnedProxy[T]':
    """Copy the target into a new key and return its new owner.

    The clone is fully independent: dropping either owner does not affect
    the other's key.
    """
    record = _record_of(proxy, 'clone()')
    # Hold a shared borrow for the duration of the copy: it both rejects
    # cloning while a mutable borrow is live (BorrowError) and blocks a
    # concurrent mut_borrow from mutating the target mid-serialization.
    try:
        record.add_shared()
    except BorrowError:
        raise BorrowError(
            f'key {record.key!r} is mutably borrowed; clone() needs '
            'read access to the target',
        ) from None
    try:
        factory = get_factory(proxy)
        store = factory.get_store()
        target = _do_resolve(proxy)
        # cache_local=False: the original's caching choice is unknowable
        # here, and silently pinning a possibly huge clone in the local
        # cache is the worse surprise — callers can cache explicitly.
        return store.owned_proxy(
            target,
            cache_local=False,
            **getattr(factory, 'connector_kwargs', {}),
        )
    finally:
        record.release_shared()


def into_owned(proxy: 'Proxy[T]') -> 'OwnedProxy[T]':
    """Upgrade a legacy, unowned proxy into an :class:`OwnedProxy`.

    The caller asserts that ``proxy`` is the only reference to the key; the
    original proxy should be discarded afterwards (it still resolves, but it
    does not observe the new owner's lifetime).  Proxies that are already
    ownership-aware, or that were created with ``evict=True``, cannot be
    upgraded.
    """
    if issubclass(type(proxy), _TrackedProxy):
        raise OwnershipError(
            f'{type(proxy).__name__} already participates in ownership '
            'tracking and cannot be upgraded with into_owned()',
        )
    if not issubclass(type(proxy), Proxy):
        raise OwnershipError(
            f'into_owned() requires a Proxy, got {type(proxy).__name__}',
        )
    factory = get_factory(proxy)
    if getattr(factory, 'evict', False):
        raise OwnershipError(
            'cannot take ownership of an evict-on-resolve proxy: its key '
            'is destroyed by the first resolution',
        )
    return OwnedProxy(copy_module.copy(factory))


def drop(proxy: 'OwnedProxy[Any]') -> None:
    """Drop ``proxy``'s ownership now, evicting the backing key.

    Idempotent.  Outstanding borrows are invalidated and raise
    :class:`UseAfterFreeError` on their next access.
    """
    if not issubclass(type(proxy), OwnedProxy):
        raise OwnershipError(
            f'drop() requires an OwnedProxy, got {type(proxy).__name__}',
        )
    with _TRANSITIONS:
        record = object.__getattribute__(proxy, '__ownership__')
        if record is None:
            # Never borrowed: leave a terminal marker so later access (or a
            # second drop) sees the freed state, then evict directly.
            object.__setattr__(proxy, '__ownership__', _FREED)
    if record is None:
        _evict_key(object.__getattribute__(proxy, '__factory__'))
    else:
        record.free()


def flush(proxy: 'RefMutProxy[Any]') -> None:
    """Write a mutable borrow's (resolved, possibly mutated) target back.

    The target is re-serialized and stored under the *same* key via the
    connector's deferred-write ``set``, so the owner and later borrows see
    the update.  Raises :class:`OwnershipError` if the connector does not
    support in-place writes or the borrow was never resolved.
    """
    if not issubclass(type(proxy), RefMutProxy):
        raise OwnershipError(
            f'flush() requires a RefMutProxy, got {type(proxy).__name__}',
        )
    record = object.__getattribute__(proxy, '__ownership__')
    if record is not None:
        record.check_valid()
    target = object.__getattribute__(proxy, '__target__')
    if target is UNRESOLVED:
        raise OwnershipError(
            'flush() on an unresolved mutable borrow: nothing was mutated',
        )
    from repro.serialize.buffers import payload_nbytes
    from repro.store.metrics import Timer

    factory = get_factory(proxy)
    store = factory.get_store()
    with Timer() as t_ser:
        data = store.serializer(target)
    nbytes = payload_nbytes(data)
    store._record('serialize', t_ser.elapsed, nbytes)
    try:
        with Timer() as t_set:
            store.connector.set(factory.key, data)
    except NotImplementedError as e:
        raise OwnershipError(
            f'connector {type(store.connector).__name__} does not support '
            'in-place writes; flush() is unavailable on this store',
        ) from e
    store._record('set', t_set.elapsed, nbytes)
    # Refresh an existing cache entry so no reader sees the stale value,
    # but never introduce one: the owner may have opted out of local
    # caching for a reason (e.g. a model larger than the cache budget).
    if store.is_cached(factory.key):
        store.cache.set(factory.key, target)
