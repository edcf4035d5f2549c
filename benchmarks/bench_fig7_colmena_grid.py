"""Figure 7: Colmena/Parsl round-trip improvement grids for FileStore and RedisStore."""
from __future__ import annotations

from benchmarks.conftest import full_sweeps
from benchmarks.conftest import print_table
from benchmarks.paper.figures.fig7 import run_figure7


def _sizes() -> tuple[int, ...]:
    if full_sweeps():
        return (10, 1_000, 100_000, 10_000_000, 100_000_000)
    return (100, 10_000, 1_000_000, 10_000_000)


def test_fig7_colmena_improvement_grid(benchmark):
    table = benchmark.pedantic(
        lambda: run_figure7(input_sizes=_sizes(), output_sizes=_sizes(), repeats=5),
        rounds=1, iterations=1,
    )
    print_table(table)
    sizes = _sizes()
    for store in ('file-store', 'redis-store'):
        small = table.value('improvement_pct', store=store,
                            input_bytes=sizes[0], output_bytes=sizes[0])
        large = table.value('improvement_pct', store=store,
                            input_bytes=sizes[-1], output_bytes=sizes[-1])
        # Improvements grow with data size: negligible (possibly negative) for
        # small payloads, large for the biggest payloads (Figure 7).
        assert large > 30.0
        assert large > small
