"""Figure 10: federated-learning model transfer times vs model size.

The FLoX-style application grows the model's hidden-block count and measures
the time to move the model between the aggregator and an edge device when the
model rides through the FaaS cloud service (bounded by the 5 MB payload limit)
versus when it is proxied through PS-endpoints.  Real models are built and
serialized so the x-axis truly is model size; transfer times are virtual
seconds over the edge links of the simulated fabric.
"""
from __future__ import annotations

from typing import Sequence

from benchmarks.paper.apps.federated_learning import create_model
from benchmarks.paper.apps.federated_learning import model_nbytes
from benchmarks.paper.faas import DEFAULT_PAYLOAD_LIMIT_BYTES
from benchmarks.paper.figures.reporting import ResultTable
from benchmarks.paper.sim import paper_testbed
from benchmarks.paper.sim.costs import CloudRelayCost
from benchmarks.paper.sim.costs import EndpointPeerCost

__all__ = ['run_figure10']

DEFAULT_HIDDEN_BLOCKS = (1, 5, 10, 20, 30, 40, 50)
AGGREGATOR_HOST = 'gpu-server'
EDGE_HOST = 'edge-device-0'


def run_figure10(
    *,
    hidden_blocks: Sequence[int] = DEFAULT_HIDDEN_BLOCKS,
    hidden_width: int = 180,
) -> ResultTable:
    """Measure per-round model transfer time for cloud vs EndpointStore."""
    fabric = paper_testbed()
    cloud_cost = CloudRelayCost(fabric)
    endpoint_cost = EndpointPeerCost(fabric)
    table = ResultTable(
        title='Figure 10: federated learning model transfer time',
        columns=['hidden_blocks', 'model_bytes', 'method', 'transfer_s'],
    )
    table.add_note(f'cloud transfer unavailable above the {DEFAULT_PAYLOAD_LIMIT_BYTES} byte payload limit')
    for blocks in hidden_blocks:
        model = create_model(blocks, hidden_width=hidden_width)
        nbytes = model_nbytes(model)
        # Cloud transfer: aggregator -> cloud -> edge device (one direction of
        # the round; the paper reports the per-round transfer time).
        if nbytes > DEFAULT_PAYLOAD_LIMIT_BYTES:
            cloud_time = None
        else:
            cloud_time = cloud_cost.put_cost(nbytes, AGGREGATOR_HOST) + cloud_cost.get_cost(
                nbytes, AGGREGATOR_HOST, EDGE_HOST,
            )
        table.add_row(
            hidden_blocks=blocks, model_bytes=nbytes,
            method='cloud-transfer', transfer_s=cloud_time,
        )
        # EndpointStore: the model is proxied; the edge device's endpoint
        # pulls it directly from the aggregator's endpoint.
        endpoint_time = endpoint_cost.put_cost(nbytes, AGGREGATOR_HOST) + endpoint_cost.get_cost(
            nbytes, AGGREGATOR_HOST, EDGE_HOST,
        )
        table.add_row(
            hidden_blocks=blocks, model_bytes=nbytes,
            method='endpoint-store', transfer_s=endpoint_time,
        )
    return table
