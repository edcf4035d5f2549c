"""Ablation benchmarks for the design choices in ``docs/ARCHITECTURE.md``.

These do not correspond to a specific paper figure; they quantify the costs
and benefits of individual mechanisms in the implementation: raw proxy
overhead, deserialization caching, serialization fast paths, evict-on-resolve,
asynchronous resolution overlap, MultiConnector policy routing overhead, and
batched versus per-object puts.  All measurements are real wall-clock times
on the local machine.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np

from benchmarks.paper.figures.reporting import ResultTable
from repro.connectors.local import LocalConnector
from repro.connectors.multi import MultiConnector
from repro.connectors.policy import Policy
from repro.proxy import Proxy
from repro.proxy import SimpleFactory
from repro.serialize import deserialize
from repro.serialize import serialize
from repro.store import Store

__all__ = ['run_ablations']


def _time(fn: Callable[[], None], repeats: int = 5) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn`` (small, stable numbers)."""
    best = float('inf')
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _ablation_proxy_overhead(table: ResultTable) -> None:
    """Attribute access through a resolved proxy vs. direct access."""
    target = {'value': 1}
    proxy = Proxy(SimpleFactory(target))
    _ = proxy['value']  # resolve once

    n = 50_000
    direct = _time(lambda: [target['value'] for _ in range(n)])
    proxied = _time(lambda: [proxy['value'] for _ in range(n)])
    table.add_row(ablation='proxy-overhead', variant='direct-access', seconds=direct)
    table.add_row(ablation='proxy-overhead', variant='via-proxy', seconds=proxied)


def _ablation_caching(table: ResultTable) -> None:
    """Repeated gets of one object with and without the deserialization cache."""
    payload = np.zeros(250_000)
    for cache_size, variant in ((0, 'cache-disabled'), (16, 'cache-enabled')):
        store = Store.from_url(
            f'local:///ablation-cache-{cache_size}'
            f'?cache_size={cache_size}&register=0',
        )
        key = store.put(payload)
        elapsed = _time(lambda: [store.get(key) for _ in range(50)])
        table.add_row(ablation='deserialization-cache', variant=variant, seconds=elapsed)
        store.close(clear=True)


def _ablation_serializer_fast_paths(table: ResultTable) -> None:
    """Numpy fast path vs. forcing pickle for array payloads."""
    import pickle

    array = np.random.default_rng(0).normal(size=(512, 512))
    fast = _time(lambda: deserialize(serialize(array)))
    pickled = _time(lambda: pickle.loads(pickle.dumps(array)))
    table.add_row(ablation='serializer', variant='numpy-fast-path', seconds=fast)
    table.add_row(ablation='serializer', variant='pickle', seconds=pickled)


def _ablation_evict_on_resolve(table: ResultTable) -> None:
    """Space cost of keeping vs. evicting ephemeral objects."""
    n = 200
    for evict, variant in ((False, 'keep'), (True, 'evict-on-resolve')):
        store = Store.from_url(f'local:///ablation-evict-{variant}')
        proxies = [store.proxy(b'x' * 1000, evict=evict, cache_local=False) for _ in range(n)]
        for proxy in proxies:
            _ = len(proxy)
        table.add_row(
            ablation='evict-flag', variant=variant,
            seconds=float(len(store.connector)),
        )
        store.close(clear=True)


def _ablation_multiconnector_routing(table: ResultTable) -> None:
    """Overhead of policy routing vs. using the underlying connector directly."""
    plain = LocalConnector()
    multi = MultiConnector({
        'a': (LocalConnector(), Policy(max_size_bytes=100, priority=1)),
        'b': (LocalConnector(), Policy(min_size_bytes=101, priority=1)),
        'c': (LocalConnector(), Policy(priority=0)),
    })
    data = b'y' * 512
    direct = _time(lambda: [plain.put(data) for _ in range(500)])
    routed = _time(lambda: [multi.put(data) for _ in range(500)])
    table.add_row(ablation='multiconnector-routing', variant='direct', seconds=direct)
    table.add_row(ablation='multiconnector-routing', variant='policy-routed', seconds=routed)
    plain.close(clear=True)
    multi.close(clear=True)


def _ablation_batching(table: ResultTable) -> None:
    """proxy_batch vs. one proxy call per object."""
    store = Store.from_url('local:///ablation-batch?register=0')
    objects = [b'z' * 2_000 for _ in range(200)]
    loop = _time(lambda: [store.proxy(obj, cache_local=False) for obj in objects])
    batch = _time(lambda: store.proxy_batch(objects, cache_local=False))
    table.add_row(ablation='batching', variant='per-object', seconds=loop)
    table.add_row(ablation='batching', variant='proxy_batch', seconds=batch)
    store.close(clear=True)


def run_ablations() -> ResultTable:
    """Run every ablation and return a single result table."""
    table = ResultTable(
        title='Ablations: component-level design choices',
        columns=['ablation', 'variant', 'seconds'],
    )
    table.add_note('evict-flag rows report objects left in the connector, not seconds')
    _ablation_proxy_overhead(table)
    _ablation_caching(table)
    _ablation_serializer_fast_paths(table)
    _ablation_evict_on_resolve(table)
    _ablation_multiconnector_routing(table)
    _ablation_batching(table)
    return table
