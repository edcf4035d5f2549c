"""Figure 10: federated learning model transfer time vs model size."""
from __future__ import annotations

from benchmarks.conftest import print_table
from benchmarks.paper.faas import DEFAULT_PAYLOAD_LIMIT_BYTES
from benchmarks.paper.figures.fig10 import run_figure10


def test_fig10_federated_learning_transfers(benchmark):
    blocks = (1, 5, 10, 20, 30, 40, 50)
    table = benchmark.pedantic(lambda: run_figure10(hidden_blocks=blocks), rounds=1, iterations=1)
    print_table(table)
    # Models beyond ~40 hidden blocks exceed the FaaS payload limit and can
    # only be transferred with ProxyStore (Figure 10).
    largest = max(blocks)
    assert table.value('transfer_s', hidden_blocks=largest, method='cloud-transfer') is None
    assert table.value('transfer_s', hidden_blocks=largest, method='endpoint-store') is not None
    assert table.value('model_bytes', hidden_blocks=largest, method='cloud-transfer') > DEFAULT_PAYLOAD_LIMIT_BYTES
    # Where both work, ProxyStore reduces transfer time substantially
    # (the paper reports ~68 % on average).
    improvements = []
    for b in blocks:
        cloud = table.value('transfer_s', hidden_blocks=b, method='cloud-transfer')
        endpoint = table.value('transfer_s', hidden_blocks=b, method='endpoint-store')
        if cloud is not None:
            improvements.append((cloud - endpoint) / cloud)
    assert improvements and sum(improvements) / len(improvements) > 0.4
