"""Execution-location context for the simulated testbed.

On the real testbed, where a piece of code runs determines which network paths
its communication takes.  In this single-machine reproduction the benchmarks
"act out" the different locations: before running producer code they set the
current host to (say) ``'midway2-login'`` and before running task code to
``'theta-compute'``.  Cost models consult :func:`current_host` to decide which
links a transfer crosses.
"""
from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator

__all__ = ['current_host', 'set_current_host', 'on_host']

_CURRENT_HOST: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    'repro_sim_current_host', default=None,
)

#: Host assumed when none has been set (an arbitrary but stable default).
DEFAULT_HOST = 'theta-login'


def current_host() -> str:
    """Return the host the current code is pretending to run on."""
    host = _CURRENT_HOST.get()
    return host if host is not None else DEFAULT_HOST


def set_current_host(host: str | None) -> contextvars.Token:
    """Set the simulated current host (``None`` restores the default)."""
    return _CURRENT_HOST.set(host)


@contextlib.contextmanager
def on_host(host: str) -> Iterator[None]:
    """Context manager running the enclosed block 'on' ``host``."""
    token = _CURRENT_HOST.set(host)
    try:
        yield
    finally:
        _CURRENT_HOST.reset(token)
