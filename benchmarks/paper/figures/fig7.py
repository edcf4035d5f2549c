"""Figure 7: task round-trip improvement when Colmena passes data by proxy.

No-op tasks with varied input and output sizes run through the Colmena-like
Thinker / Task Server / Parsl-like engine pipeline, co-located in one process
(mirroring the paper's single-Theta-node setup which isolates workflow-system
overheads from the network).  The baseline ships the data through every
pipeline component; the ProxyStore variants register a FileStore or RedisStore
with a zero threshold so only proxies flow through the pipeline.  The reported
metric is the percent improvement in median round-trip time — the same
quantity as the heat maps in Figure 7 — measured in real wall-clock time.
"""
from __future__ import annotations

import tempfile
from typing import Sequence

import numpy as np

from benchmarks.paper.figures.reporting import ResultTable
from benchmarks.paper.sim import payload_of_size
from repro.store import ContextLifetime
from repro.store import Store
from repro.workflow import ColmenaQueues
from repro.workflow import TaskServer
from repro.workflow import Thinker
from repro.workflow import WorkflowEngine

__all__ = ['run_figure7']

DEFAULT_SIZES = (100, 10_000, 1_000_000)


def _make_task(output_size: int):
    """A no-op task returning a payload of ``output_size`` bytes."""

    def task(data):
        # Touch the input (resolving it if it is a proxy) and produce output.
        _ = len(data)
        return payload_of_size(output_size)

    return task


def _median_roundtrip(
    store: Store | None,
    input_size: int,
    output_size: int,
    repeats: int,
) -> float:
    queues = ColmenaQueues()
    # Bind every key this measurement run proxies to one lifetime: closing
    # it below batch-evicts them, so repeated grid cells do not accumulate
    # stale objects in the backing store.
    with ContextLifetime() as run_lifetime, WorkflowEngine(n_workers=1) as engine:
        server = TaskServer(queues, engine, lifetime=run_lifetime)
        server.register_topic(
            'noop',
            _make_task(output_size),
            store=store,
            threshold_bytes=0 if store is not None else None,
        )
        thinker = Thinker(queues)
        with server:
            times = []
            payload = payload_of_size(input_size)
            for _ in range(repeats):
                result = thinker.run_task('noop', payload)
                if not result.success:
                    raise RuntimeError(f'task failed: {result.error}')
                times.append(result.roundtrip_time)
    return float(np.median(times))


def run_figure7(
    *,
    input_sizes: Sequence[int] = DEFAULT_SIZES,
    output_sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 5,
    stores: Sequence[str] = ('file-store', 'redis-store'),
    workdir: str | None = None,
) -> ResultTable:
    """Measure percent improvement grids for the requested stores."""
    table = ResultTable(
        title='Figure 7: Colmena round-trip improvement with ProxyStore',
        columns=['store', 'input_bytes', 'output_bytes',
                 'baseline_s', 'proxystore_s', 'improvement_pct'],
    )
    table.add_note('improvement = (baseline - proxystore) / baseline * 100, medians of real wall-clock round trips')
    with tempfile.TemporaryDirectory() as tmp:
        base = workdir or tmp
        for store_kind in stores:
            for input_size in input_sizes:
                for output_size in output_sizes:
                    baseline = _median_roundtrip(None, input_size, output_size, repeats)
                    if store_kind == 'file-store':
                        store_url = f'file://{base}/fig7-{input_size}-{output_size}'
                    else:
                        store_url = 'local://'
                    store = Store.from_url(
                        f'{store_url}?cache_size=0',
                        name=f'fig7-{store_kind}-{input_size}-{output_size}',
                    )
                    try:
                        with_proxy = _median_roundtrip(store, input_size, output_size, repeats)
                    finally:
                        store.close(clear=True)
                    improvement = (baseline - with_proxy) / baseline * 100.0
                    table.add_row(
                        store=store_kind,
                        input_bytes=input_size,
                        output_bytes=output_size,
                        baseline_s=baseline,
                        proxystore_s=with_proxy,
                        improvement_pct=improvement,
                    )
    return table
