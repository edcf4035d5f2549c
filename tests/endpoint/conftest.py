"""Leak check: endpoints own real sockets and threads and must release them."""
from __future__ import annotations

import os
import threading

import pytest


def _open_fds() -> int:
    return len(os.listdir('/proc/self/fd'))


@pytest.fixture(autouse=True)
def _no_leaked_threads_or_fds():
    """Every endpoint test ends with the threads and fds it started with.

    ``Endpoint.stop()`` has to close the server (listener, wake pipe,
    selector, accepted sockets, loop thread) and every pooled client
    (a socket; no thread of its own); a miss shows here as a count that grew.
    """
    threads_before = threading.active_count()
    fds_before = _open_fds()
    yield
    assert threading.active_count() == threads_before, threading.enumerate()
    assert _open_fds() == fds_before
