"""Figure 9: PS-endpoint peering versus Redis over an SSH tunnel."""
from __future__ import annotations

from benchmarks.conftest import full_sweeps
from benchmarks.conftest import print_table
from benchmarks.paper.figures.fig9 import run_figure9


def test_fig9_endpoint_peering(benchmark):
    sizes = (1_000, 10_000, 100_000, 1_000_000, 10_000_000)
    requests = 10 if full_sweeps() else 3
    table = benchmark.pedantic(
        lambda: run_figure9(payload_sizes=sizes, requests=requests), rounds=1, iterations=1,
    )
    print_table(table)
    # Redis over SSH is generally faster than PS-endpoints (extra hop plus the
    # throttled data channel), and the gap widens at larger payload sizes —
    # but PS-endpoints stay within an order of magnitude for WAN transfers
    # while requiring no tunnels or open ports (Section 5.3.2).
    for pair in ('Midway2 -> Theta', 'Frontera -> Theta'):
        endpoint_large = table.value('avg_time_ms', site_pair=pair, system='ps-endpoints',
                                     operation='get', payload_bytes=max(sizes))
        redis_large = table.value('avg_time_ms', site_pair=pair, system='redis+ssh',
                                  operation='get', payload_bytes=max(sizes))
        assert redis_large < endpoint_large
        endpoint_small = table.value('avg_time_ms', site_pair=pair, system='ps-endpoints',
                                     operation='get', payload_bytes=min(sizes))
        redis_small = table.value('avg_time_ms', site_pair=pair, system='redis+ssh',
                                  operation='get', payload_bytes=min(sizes))
        gap_small = endpoint_small / redis_small
        gap_large = endpoint_large / redis_large
        assert gap_large > gap_small
