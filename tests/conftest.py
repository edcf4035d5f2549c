"""Shared pytest fixtures and chaos/timeout wiring for the test suite."""
from __future__ import annotations

import gc
import multiprocessing.resource_tracker
import operator
import os
import signal
import threading
import time

import pytest

from repro.connectors.local import LocalConnector
from repro.serialize.registry import default_registry
from repro.store import unregister_all

try:
    import pytest_timeout  # noqa: F401
    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def pytest_configure(config):
    """Register the suite's custom markers (no pytest.ini in this repo)."""
    config.addinivalue_line(
        'markers',
        'chaos: fault-injection tests that kill real subprocesses '
        "(deselect with -m 'not chaos')",
    )
    config.addinivalue_line(
        'markers',
        'slow: paper-scale experiment runs that take tens of seconds '
        "(deselect with -m 'not slow')",
    )
    config.addinivalue_line(
        'markers',
        'timeout(seconds): fail the test if it runs longer than the bound '
        '(pytest-timeout when installed, SIGALRM fallback otherwise)',
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback for ``@pytest.mark.timeout`` without pytest-timeout.

    A hung failover test must fail fast, not wedge the whole run.  When
    the real plugin is installed it handles the marker itself; this
    fallback only arms an alarm on the main thread of platforms that
    have ``SIGALRM`` (the CI runners do).
    """
    marker = item.get_closest_marker('timeout')
    seconds = 0
    if marker is not None and not _HAVE_PYTEST_TIMEOUT:
        if marker.args:
            seconds = int(marker.args[0])
        elif 'seconds' in marker.kwargs:
            seconds = int(marker.kwargs['seconds'])
    usable = (
        seconds > 0
        and hasattr(signal, 'SIGALRM')
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(
            f'test exceeded its {seconds}s timeout (SIGALRM fallback)',
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Keep process-global registries isolated between tests."""
    yield
    unregister_all()
    default_registry.clear()


#: Test directories whose every test must leave no socket and no thread
#: behind (widened one directory at a time), each with its rule: ``False``
#: gives the counts :data:`GRACE_S` to come back to their level, ``True``
#: demands the very same counts the moment the test ends.
LEAK_CHECKED_DIRS = {
    'kvserver': False, 'stream': False, 'endpoint': True, 'dim': False,
    'cluster': False,
}

#: Seconds the fd and thread counts get to return to their level.
GRACE_S = 2.0


def _fd_count() -> int:
    return len(os.listdir('/proc/self/fd'))


@pytest.fixture(autouse=True)
def _no_leaked_fds_or_threads(request):
    """Fail a test in :data:`LEAK_CHECKED_DIRS` that leaks an fd or a thread.

    A stray socket or a waiter stuck on a dead connection shows up as an
    open file descriptor or a live thread that was not there before the
    test.  Servers drain and clients close asynchronously (a loop thread
    exits after ``stop`` returns, a closed socket's peer notices later),
    so the counts get a short grace period to come back, with garbage
    collected only while a count is over (collecting can only lower one).
    A strict directory (``Endpoint.stop()`` must release everything
    before it returns) gets no grace: the counts must be equal at once.
    """
    strict = LEAK_CHECKED_DIRS.get(request.path.parent.name)
    if strict is None or not os.path.isdir('/proc/self/fd'):
        yield
        return
    # The first test that spawns a process starts the process-wide
    # resource tracker, whose pipe stays open: start it before counting.
    multiprocessing.resource_tracker.ensure_running()
    fds, threads = _fd_count(), threading.active_count()
    yield
    deadline = time.monotonic() + GRACE_S
    collected = False
    while True:
        fds_now, threads_now = _fd_count(), threading.active_count()
        if (strict or (fds_now <= fds and threads_now <= threads)
                or time.monotonic() > deadline):
            break
        if collected:
            time.sleep(0.05)
        gc.collect()
        collected = True
    within = operator.eq if strict else operator.le
    assert within(fds_now, fds), f'{fds_now - fds} file descriptor(s) leaked'
    assert within(threads_now, threads), (
        f'{threads_now - threads} thread(s) leaked: '
        f'{sorted(t.name for t in threading.enumerate())}'
    )


class CountingConnector(LocalConnector):
    """LocalConnector that counts scalar vs batched evictions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evict_calls = 0
        self.evict_batch_calls = 0

    def evict(self, key):
        self.evict_calls += 1
        super().evict(key)

    def evict_batch(self, keys):
        self.evict_batch_calls += 1
        super().evict_batch(list(keys))


#: The witness wraps every lock the suite creates when this env var is
#: set — the dedicated CI job runs the cluster/stream/chaos tests with
#: it to catch dynamic lock-order inversions the static RP003 rule
#: cannot see.
_WITNESS_ENABLED = os.environ.get('REPRO_WITNESS') == '1'


@pytest.fixture(scope='session', autouse=_WITNESS_ENABLED)
def _witness_session():
    """Install the runtime lock-order witness for the whole run."""
    from repro.analysis import witness

    witness.install(raise_on_violation=True)
    yield
    witness.uninstall()


@pytest.fixture(autouse=_WITNESS_ENABLED)
def _witness_check(_witness_session):
    """Fail any test during which an inversion was recorded.

    A violation normally raises inside the offending thread; if that
    thread swallowed it (a broad except in a worker), the recorded
    message still fails the test here.
    """
    from repro.analysis import witness

    witness.clear_violations()
    yield
    seen = witness.violations()
    witness.clear_violations()
    assert not seen, 'lock-order inversion(s) observed:\n' + '\n'.join(seen)


@pytest.fixture()
def local_store(tmp_path):
    """A Store backed by a LocalConnector, unregistered on teardown."""
    from repro.store import Store

    store = Store.from_url('local:///test-local-store?cache_size=4')
    yield store
    store.close(clear=True)


@pytest.fixture()
def file_store(tmp_path):
    """A Store backed by a FileConnector rooted in a temp directory."""
    from repro.store import Store

    store = Store.from_url(f'file://{tmp_path}/data?name=test-file-store')
    yield store
    store.close(clear=True)
