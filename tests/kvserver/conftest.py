"""Every SimKV test leaves no socket and no thread behind.

A stray socket or a waiter stuck on a dead connection shows up here as an
open file descriptor or a live thread that was not there before the test.
Servers drain and clients close asynchronously (a loop thread exits after
``stop`` returns, a closed socket's peer notices later), so the counts
get a short grace period to come back.
"""
from __future__ import annotations

import gc
import os
import threading
import time

import pytest

#: Seconds the fd and thread counts get to return to their level.
GRACE_S = 2.0


def _fd_count() -> int:
    return len(os.listdir('/proc/self/fd'))


@pytest.fixture(autouse=True)
def _no_leaked_fds_or_threads():
    if not os.path.isdir('/proc/self/fd'):
        yield
        return
    fds, threads = _fd_count(), threading.active_count()
    yield
    deadline = time.monotonic() + GRACE_S
    while True:
        gc.collect()
        fds_now, threads_now = _fd_count(), threading.active_count()
        if (fds_now <= fds and threads_now <= threads) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert fds_now <= fds, f'{fds_now - fds} file descriptor(s) leaked'
    assert threads_now <= threads, (
        f'{threads_now - threads} thread(s) leaked: '
        f'{sorted(t.name for t in threading.enumerate())}'
    )
