"""A per-layer call ledger: what one item of a fixed path costs, by package.

Two paths run over ``redis://`` against an in-process ``KVServer``:

* ``rt_small``: a 1 KB dict through ``Store.proxy(evict=True)``,
  ``pickle.dumps``, ``pickle.loads``, ``resolve`` and the check a receiving
  task makes (two item reads);
* ``bulk``: a 4 MiB float64 array through ``Store.put`` and ``Store.get``,
  then ``Store.evict``, so the server holds one array at a time.

After a warm-up, ``sys.setprofile``/``threading.setprofile`` count the calls
to Python functions under ``src/repro`` on the caller's thread and on the
server's ``simkv-loop`` thread, per ``repro`` package.  Calls, not time:
the table is the same on every run, Python version and host.

Each (path, thread, package) cell has a ceiling set at the measured value.
A change that lowers a count lowers its ceiling; one that raises a ceiling
says why.  The bulk path's transport cells are printed but not held: they
follow how many pieces the kernel delivers a 4 MiB payload in (caller
``kvserver`` 55-63, server ``kvserver`` 57-84 and server ``serialize``
0.2-0.6 per item over fifteen runs of one tree).
A failure prints the whole table, which is also the per-layer decomposition
of the item.  ``tests/kvserver/test_request_budget.py`` keeps its own bound
on the transport.
"""
from __future__ import annotations

import os
import pickle
import sys
import threading

import numpy as np
import pytest

import repro
from repro import Store
from repro import resolve
from repro.kvserver import KVServer

#: Calls per item allowed in each (thread, package) cell of each path; a
#: cell not listed allows none, a cell set to ``None`` is not held.
BUDGETS = {
    'rt_small': {
        ('caller', 'cache'): 2,
        ('caller', 'connectors'): 5,
        ('caller', 'kvserver'): 29,
        ('caller', 'proxy'): 16,
        ('caller', 'serialize'): 5,
        ('caller', 'store'): 18,
        ('server', 'kvserver'): 26,
    },
    'bulk': {
        ('caller', 'cache'): 5,
        ('caller', 'connectors'): 4,
        ('caller', 'kvserver'): None,
        ('caller', 'serialize'): 18,
        ('caller', 'store'): 5,
        ('server', 'kvserver'): None,
        ('server', 'serialize'): None,
    },
}

_ROOT = os.path.dirname(repro.__file__) + os.sep
_ITEMS = 50
_THREADS = {'simkv-loop': 'server'}


class _Ledger:
    """A profile function counting calls into ``repro`` per thread and
    package, while armed."""

    def __init__(self) -> None:
        self.armed = False
        self.calls: dict[tuple[str, str], int] = {}
        self.caller = threading.current_thread().name

    def __call__(self, frame, event, _arg):
        if event != 'call' or not self.armed:
            return
        filename = frame.f_code.co_filename
        if not filename.startswith(_ROOT) or frame.f_code.co_name.startswith('<'):
            return
        package = filename[len(_ROOT):].split(os.sep, 1)[0].removesuffix('.py')
        if package == 'analysis':
            return  # the lock-order witness's wrappers (REPRO_WITNESS=1)
        name = threading.current_thread().name
        thread = 'caller' if name == self.caller else _THREADS.get(name, name)
        cell = (thread, package)
        self.calls[cell] = self.calls.get(cell, 0) + 1


@pytest.fixture()
def ledger():
    """A counting server loop thread, a caller thread, and a Store on them."""
    counter = _Ledger()
    threading.setprofile(counter)
    try:
        server = KVServer()
        server.start()
    finally:
        threading.setprofile(None)
    store = Store.from_url(f'redis://127.0.0.1:{server.port}/call-ledger')
    sys.setprofile(counter)
    try:
        yield counter, store
    finally:
        sys.setprofile(None)
        store.close()
        server.stop()


def _budget_text(budget: 'int | None') -> str:
    return '-' if budget is None else str(budget)


def _table(per_item: dict[tuple[str, str], float], budgets: dict) -> str:
    cells = sorted(set(per_item) | set(budgets))
    rows = [f'{"thread":<8} {"package":<12} {"calls":>7} {"budget":>7}']
    rows += [
        f'{thread:<8} {package:<12} {per_item.get((thread, package), 0):>7.2f} '
        f'{_budget_text(budgets.get((thread, package), 0)):>7}'
        for thread, package in cells
    ]
    return '\n'.join(rows)


def _check(counter: _Ledger, path: str, item, items: int) -> None:
    """Warm up, count ``items`` calls of ``item``, hold each cell to budget."""
    for i in range(5):  # warm-up: connect, first-use caches, the config
        item(i)
    counter.armed = True
    for i in range(items):
        item(1 << 24 | i)
    counter.armed = False
    budgets = BUDGETS[path]
    per_item = {cell: calls / items for cell, calls in counter.calls.items()}
    over = [
        cell
        for cell, calls in per_item.items()
        if budgets.get(cell, 0) is not None and calls > budgets.get(cell, 0)
    ]
    assert not over, f'{path} over budget: {over}\n{_table(per_item, budgets)}'


def test_an_rt_small_item_stays_within_its_ledger(ledger):
    counter, store = ledger

    def item(item_id: int) -> None:
        proxy = store.proxy({'id': item_id, 'blob': os.urandom(1000)}, evict=True)
        received = pickle.loads(pickle.dumps(proxy))
        resolve(received)
        assert received['id'] == item_id and len(received['blob']) == 1000

    _check(counter, 'rt_small', item, _ITEMS)


def test_a_bulk_item_stays_within_its_ledger(ledger):
    counter, store = ledger
    array = np.arange(4 << 20 >> 3, dtype=np.float64)

    def item(item_id: int) -> None:
        array[0] = item_id
        key = store.put(array)
        got = store.get(key)
        assert got[0] == item_id and got.nbytes == array.nbytes
        store.evict(key)

    _check(counter, 'bulk', item, 10)
