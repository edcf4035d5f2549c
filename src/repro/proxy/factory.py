"""Factory abstractions used to initialize proxies.

A factory is *any* zero-argument callable returning the target object —
lambdas, functions, and callable class instances all work.  The classes here
add two conveniences on top of the bare-callable protocol:

* a common base class (:class:`Factory`) for factories that want to support
  asynchronous pre-resolution (``resolve_async``), and
* small concrete factories used throughout the library and its tests.

Factories must be picklable for proxies to be communicated across processes;
:class:`LambdaFactory` therefore only accepts picklable callables and
arguments (this is checked lazily, at pickle time, like ProxyStore does).
"""
from __future__ import annotations

import threading
from typing import Any
from typing import Callable
from typing import Generic
from typing import TypeVar

T = TypeVar('T')

__all__ = ['Factory', 'SimpleFactory', 'LambdaFactory']


class Factory(Generic[T]):
    """Base class for factories with optional asynchronous pre-resolution.

    Subclasses must implement :meth:`resolve`.  ``resolve_async`` starts the
    resolution in a background thread; a subsequent call to the factory will
    wait on and reuse that result so communication can be overlapped with
    computation (Section 3.5 of the paper).
    """

    # Background-resolution state is process-local: class-level defaults
    # until ``resolve_async`` runs, and never part of a pickle.
    _async_thread: threading.Thread | None = None
    _async_result: Any = None
    _async_error: BaseException | None = None

    # -- the factory protocol ------------------------------------------- #
    def __call__(self) -> T:
        thread = self._async_thread
        if thread is not None:
            thread.join()
            self._async_thread = None
            if self._async_error is not None:
                error, self._async_error = self._async_error, None
                raise error
            result, self._async_result = self._async_result, None
            return result
        return self.resolve()

    def resolve(self) -> T:
        """Produce and return the target object."""
        raise NotImplementedError

    def resolve_async(self) -> None:
        """Begin resolving the target in a background thread.

        Calling the factory afterwards joins the background thread and
        returns its result, raising any exception the background resolution
        produced.
        """
        if self._async_thread is not None:
            return

        def _run() -> None:
            try:
                self._async_result = self.resolve()
            except BaseException as e:  # noqa: BLE001 - re-raised on join
                # Strip the traceback before the exception outlives this
                # frame: a stored traceback pins the resolving frames and
                # any live pickle-5 buffer exports they hold (the PR 8
                # BufferError-on-GC crash class).
                self._async_error = e.with_traceback(None)

        self._async_thread = threading.Thread(target=_run, daemon=True)
        self._async_thread.start()

    # -- pickling -------------------------------------------------------- #
    def reduce_proxy(self, proxy_type: type) -> tuple[Any, tuple[Any, ...]] | None:
        """The ``__reduce__`` value of ``proxy_type(self)``, or ``None``.

        ``None`` (the default) pickles the proxy as ``proxy_type(factory)``.
        A factory that can rebuild such a proxy itself in one call returns
        that call, saving the proxy class's global and a ``REDUCE`` on the
        wire.
        """
        return None

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        for name in ('_async_thread', '_async_result', '_async_error'):
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)


class SimpleFactory(Factory[T]):
    """Factory that simply returns the object it was constructed with.

    Useful for testing and for building proxies of objects that are already
    present in the consumer process.
    """

    def __init__(self, obj: T) -> None:
        super().__init__()
        self.obj = obj

    def __repr__(self) -> str:
        return f'SimpleFactory({self.obj!r})'

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimpleFactory) and self.obj == other.obj

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash(('SimpleFactory', id(self.obj)))

    def resolve(self) -> T:
        """Return the wrapped object (no I/O, never fails)."""
        return self.obj


class LambdaFactory(Factory[T]):
    """Factory wrapping an arbitrary callable plus positional/keyword arguments.

    The callable and its arguments must themselves be picklable for the proxy
    to be communicable; lambdas and nested functions will work in-process but
    fail at pickle time, exactly as with ProxyStore.
    """

    def __init__(
        self,
        target: Callable[..., T],
        *args: Any,
        **kwargs: Any,
    ) -> None:
        super().__init__()
        if not callable(target):
            raise TypeError('target of a LambdaFactory must be callable')
        self.target = target
        self.args = args
        self.kwargs = kwargs

    def __repr__(self) -> str:
        return (
            f'LambdaFactory({self.target!r}, args={self.args!r}, '
            f'kwargs={self.kwargs!r})'
        )

    def resolve(self) -> T:
        """Invoke the wrapped callable and return its result."""
        return self.target(*self.args, **self.kwargs)
