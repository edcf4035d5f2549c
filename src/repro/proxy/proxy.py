"""Transparent, lazy object proxies.

A :class:`Proxy` wraps a *factory* — any callable returning the target object —
and defers calling it until the proxy is first used.  Once resolved, every
operation performed on the proxy is forwarded to the cached target, so the
proxy behaves identically to the object it references:

>>> from repro.proxy import Proxy
>>> p = Proxy(lambda: [1, 2, 3])
>>> isinstance(p, list)
True
>>> p + [4]
[1, 2, 3, 4]

Two properties make proxies suitable as wide-area object references:

* **Transparency** — all special methods are forwarded to the target, and the
  apparent ``__class__`` of the proxy is the class of the target, so
  ``isinstance`` checks behave as if the caller held the target itself.
* **Lazy resolution** — the factory is only invoked on first use.  A proxy of
  an object that is never touched never pays the communication cost of
  fetching it.

Pickling a proxy serializes *only the factory* (never the target), so proxies
stay small on the wire and remain resolvable after being communicated to
another process — the core mechanism of the ProxyStore programming model.
A :class:`~repro.proxy.factory.Factory` may ship a proxy of itself as one
call (:meth:`~repro.proxy.factory.Factory.reduce_proxy`) in place of
``Proxy(factory)``.
"""
from __future__ import annotations

import operator
from typing import Any
from typing import Callable
from typing import Generic
from typing import Iterator
from typing import TypeVar

from repro.exceptions import ProxyResolveError
from repro.proxy.factory import Factory

T = TypeVar('T')

__all__ = ['Proxy', 'ProxyResolveError', 'get_factory', 'UNRESOLVED']


class _Unresolved:
    """Sentinel type marking a proxy whose target has not been produced yet."""

    _instance: '_Unresolved | None' = None

    def __new__(cls) -> '_Unresolved':
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return '<unresolved>'

    def __reduce__(self):  # keep the sentinel a singleton across pickling
        return (_Unresolved, ())


UNRESOLVED = _Unresolved()


def _do_resolve(proxy: 'Proxy[Any]') -> Any:
    """Resolve ``proxy`` by invoking its factory, caching and returning the target."""
    target = object.__getattribute__(proxy, '__target__')
    if target is not UNRESOLVED:
        return target
    factory = object.__getattribute__(proxy, '__factory__')
    try:
        target = factory()
    except Exception as e:  # noqa: BLE001 - deliberately wrap any factory failure
        raise ProxyResolveError(
            f'Failed to resolve proxy with factory {factory!r}: {e}',
        ) from e
    object.__setattr__(proxy, '__target__', target)
    return target


def _reduce_as(proxy_type: type, factory: Callable[[], Any]) -> tuple[Any, tuple[Any, ...]]:
    """The ``__reduce__`` value of ``proxy_type(factory)``: the factory's
    own one-call form when it offers one."""
    # type(), not isinstance(): the latter would consult a proxied
    # factory's __class__ and resolve it.
    if issubclass(type(factory), Factory):
        reduced = factory.reduce_proxy(proxy_type)
        if reduced is not None:
            return reduced
    return (proxy_type, (factory,))


def get_factory(proxy: 'Proxy[T]') -> Callable[[], T]:
    """Return the factory associated with ``proxy`` without resolving it."""
    return object.__getattribute__(proxy, '__factory__')


class Proxy(Generic[T]):
    """Lazy, transparent proxy of an arbitrary Python object.

    Args:
        factory: any callable of zero arguments returning the target object.
            The factory must be picklable if the proxy is to be communicated
            to other processes.

    The target is produced by calling the factory the first time the proxy is
    accessed and cached thereafter.  The proxy customizes its own pickling to
    include only the factory, never the (potentially large) target.
    """

    __slots__ = ('__factory__', '__target__')

    def __init__(self, factory: Callable[[], T]) -> None:
        if not callable(factory):
            raise TypeError(
                f'factory must be callable, got {type(factory).__name__}',
            )
        object.__setattr__(self, '__factory__', factory)
        object.__setattr__(self, '__target__', UNRESOLVED)

    # ------------------------------------------------------------------ #
    # Resolution machinery
    # ------------------------------------------------------------------ #
    @property
    def __wrapped__(self) -> T:
        """The target object, resolving the proxy if necessary."""
        return _do_resolve(self)

    @__wrapped__.setter
    def __wrapped__(self, value: T) -> None:
        object.__setattr__(self, '__target__', value)

    @__wrapped__.deleter
    def __wrapped__(self) -> None:
        object.__setattr__(self, '__target__', UNRESOLVED)

    @property
    def __resolved__(self) -> bool:
        return object.__getattribute__(self, '__target__') is not UNRESOLVED

    # ------------------------------------------------------------------ #
    # Identity / introspection forwarding
    # ------------------------------------------------------------------ #
    @property
    def __class__(self):  # type: ignore[override]
        return type(self.__wrapped__)

    @__class__.setter
    def __class__(self, value) -> None:  # pragma: no cover - unusual but legal
        self.__wrapped__.__class__ = value

    def __dir__(self) -> list[str]:
        return dir(self.__wrapped__)

    # ------------------------------------------------------------------ #
    # Attribute access
    # ------------------------------------------------------------------ #
    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails (i.e. not for __factory__,
        # __target__, or anything defined on the Proxy class itself).
        if name in ('__factory__', '__target__'):
            raise AttributeError(name)
        return getattr(self.__wrapped__, name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in ('__factory__', '__target__', '__wrapped__'):
            if name == '__wrapped__':
                object.__setattr__(self, '__target__', value)
            else:
                object.__setattr__(self, name, value)
        else:
            setattr(self.__wrapped__, name, value)

    def __delattr__(self, name: str) -> None:
        if name == '__wrapped__':
            object.__setattr__(self, '__target__', UNRESOLVED)
        else:
            delattr(self.__wrapped__, name)

    # ------------------------------------------------------------------ #
    # Pickling: only the factory travels.
    # ------------------------------------------------------------------ #
    def __reduce__(self):
        return _reduce_as(type(self), object.__getattribute__(self, '__factory__'))

    def __reduce_ex__(self, protocol: int):
        return self.__reduce__()

    # ------------------------------------------------------------------ #
    # Copying: duplicate the factory, never the (possibly huge) target.
    # Without these, copy.deepcopy's getattr(x, '__deepcopy__') probe is
    # forwarded to the target by __getattr__, resolving the proxy as a
    # side effect and copying the bare target instead of a fresh proxy.
    # ------------------------------------------------------------------ #
    def __copy__(self) -> 'Proxy[T]':
        factory = object.__getattribute__(self, '__factory__')
        return type(self)(factory)

    def __deepcopy__(self, memo: dict) -> 'Proxy[T]':
        import copy

        factory = object.__getattribute__(self, '__factory__')
        return type(self)(copy.deepcopy(factory, memo))

    # ------------------------------------------------------------------ #
    # String conversions
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        return str(self.__wrapped__)

    def __repr__(self) -> str:
        return repr(self.__wrapped__)

    def __format__(self, format_spec: str) -> str:
        return format(self.__wrapped__, format_spec)

    def __bytes__(self) -> bytes:
        return bytes(self.__wrapped__)

    # ------------------------------------------------------------------ #
    # Comparison and hashing
    # ------------------------------------------------------------------ #
    def __hash__(self) -> int:
        return hash(self.__wrapped__)

    def __eq__(self, other: Any) -> Any:
        return self.__wrapped__ == other

    def __ne__(self, other: Any) -> Any:
        return self.__wrapped__ != other

    def __lt__(self, other: Any) -> Any:
        return self.__wrapped__ < other

    def __le__(self, other: Any) -> Any:
        return self.__wrapped__ <= other

    def __gt__(self, other: Any) -> Any:
        return self.__wrapped__ > other

    def __ge__(self, other: Any) -> Any:
        return self.__wrapped__ >= other

    # ------------------------------------------------------------------ #
    # Truthiness and numeric conversions
    # ------------------------------------------------------------------ #
    def __bool__(self) -> bool:
        return bool(self.__wrapped__)

    def __int__(self) -> int:
        return int(self.__wrapped__)

    def __float__(self) -> float:
        return float(self.__wrapped__)

    def __complex__(self) -> complex:
        return complex(self.__wrapped__)

    def __index__(self) -> int:
        return operator.index(self.__wrapped__)

    def __round__(self, ndigits: int | None = None):
        if ndigits is None:
            return round(self.__wrapped__)
        return round(self.__wrapped__, ndigits)

    def __trunc__(self):
        import math

        return math.trunc(self.__wrapped__)

    def __floor__(self):
        import math

        return math.floor(self.__wrapped__)

    def __ceil__(self):
        import math

        return math.ceil(self.__wrapped__)

    # ------------------------------------------------------------------ #
    # Unary arithmetic
    # ------------------------------------------------------------------ #
    def __neg__(self):
        return -self.__wrapped__

    def __pos__(self):
        return +self.__wrapped__

    def __abs__(self):
        return abs(self.__wrapped__)

    def __invert__(self):
        return ~self.__wrapped__

    # ------------------------------------------------------------------ #
    # Binary arithmetic (left, right, and in-place variants)
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        return self.__wrapped__ + other

    def __radd__(self, other):
        return other + self.__wrapped__

    def __iadd__(self, other):
        self.__wrapped__ = self.__wrapped__ + other
        return self

    def __sub__(self, other):
        return self.__wrapped__ - other

    def __rsub__(self, other):
        return other - self.__wrapped__

    def __isub__(self, other):
        self.__wrapped__ = self.__wrapped__ - other
        return self

    def __mul__(self, other):
        return self.__wrapped__ * other

    def __rmul__(self, other):
        return other * self.__wrapped__

    def __imul__(self, other):
        self.__wrapped__ = self.__wrapped__ * other
        return self

    def __matmul__(self, other):
        return self.__wrapped__ @ other

    def __rmatmul__(self, other):
        return other @ self.__wrapped__

    def __imatmul__(self, other):
        self.__wrapped__ = self.__wrapped__ @ other
        return self

    def __truediv__(self, other):
        return self.__wrapped__ / other

    def __rtruediv__(self, other):
        return other / self.__wrapped__

    def __itruediv__(self, other):
        self.__wrapped__ = self.__wrapped__ / other
        return self

    def __floordiv__(self, other):
        return self.__wrapped__ // other

    def __rfloordiv__(self, other):
        return other // self.__wrapped__

    def __ifloordiv__(self, other):
        self.__wrapped__ = self.__wrapped__ // other
        return self

    def __mod__(self, other):
        return self.__wrapped__ % other

    def __rmod__(self, other):
        return other % self.__wrapped__

    def __imod__(self, other):
        self.__wrapped__ = self.__wrapped__ % other
        return self

    def __divmod__(self, other):
        return divmod(self.__wrapped__, other)

    def __rdivmod__(self, other):
        return divmod(other, self.__wrapped__)

    def __pow__(self, other, modulo=None):
        if modulo is None:
            return self.__wrapped__ ** other
        return pow(self.__wrapped__, other, modulo)

    def __rpow__(self, other):
        return other ** self.__wrapped__

    def __ipow__(self, other):
        self.__wrapped__ = self.__wrapped__ ** other
        return self

    def __lshift__(self, other):
        return self.__wrapped__ << other

    def __rlshift__(self, other):
        return other << self.__wrapped__

    def __ilshift__(self, other):
        self.__wrapped__ = self.__wrapped__ << other
        return self

    def __rshift__(self, other):
        return self.__wrapped__ >> other

    def __rrshift__(self, other):
        return other >> self.__wrapped__

    def __irshift__(self, other):
        self.__wrapped__ = self.__wrapped__ >> other
        return self

    def __and__(self, other):
        return self.__wrapped__ & other

    def __rand__(self, other):
        return other & self.__wrapped__

    def __iand__(self, other):
        self.__wrapped__ = self.__wrapped__ & other
        return self

    def __xor__(self, other):
        return self.__wrapped__ ^ other

    def __rxor__(self, other):
        return other ^ self.__wrapped__

    def __ixor__(self, other):
        self.__wrapped__ = self.__wrapped__ ^ other
        return self

    def __or__(self, other):
        return self.__wrapped__ | other

    def __ror__(self, other):
        return other | self.__wrapped__

    def __ior__(self, other):
        self.__wrapped__ = self.__wrapped__ | other
        return self

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.__wrapped__)

    def __length_hint__(self) -> int:
        return operator.length_hint(self.__wrapped__)

    def __getitem__(self, key):
        return self.__wrapped__[key]

    def __setitem__(self, key, value) -> None:
        self.__wrapped__[key] = value

    def __delitem__(self, key) -> None:
        del self.__wrapped__[key]

    def __contains__(self, item) -> bool:
        return item in self.__wrapped__

    def __iter__(self) -> Iterator:
        return iter(self.__wrapped__)

    def __next__(self):
        return next(self.__wrapped__)

    def __reversed__(self):
        return reversed(self.__wrapped__)

    # ------------------------------------------------------------------ #
    # Callables and context managers
    # ------------------------------------------------------------------ #
    def __call__(self, *args, **kwargs):
        return self.__wrapped__(*args, **kwargs)

    def __enter__(self):
        return self.__wrapped__.__enter__()

    def __exit__(self, exc_type, exc_value, traceback):
        return self.__wrapped__.__exit__(exc_type, exc_value, traceback)

    # ------------------------------------------------------------------ #
    # Async protocol
    # ------------------------------------------------------------------ #
    def __await__(self):
        return self.__wrapped__.__await__()

    def __aiter__(self):
        return self.__wrapped__.__aiter__()

    def __anext__(self):
        return self.__wrapped__.__anext__()

    async def __aenter__(self):
        return await self.__wrapped__.__aenter__()

    async def __aexit__(self, exc_type, exc_value, traceback):
        return await self.__wrapped__.__aexit__(exc_type, exc_value, traceback)
