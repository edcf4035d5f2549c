"""Figure 11: molecular-design node utilization with and without ProxyStore.

Average CPU-node and GPU utilization of the molecular design campaign as the
number of allocated CPU (simulation) nodes grows, comparing the baseline —
where every simulation result and model flows through the workflow system —
against the ProxyStore configuration, where a MultiConnector routes
simulation results via a Redis-like store and models/inference inputs via
PS-endpoints and only proxies flow through the workflow system.
"""
from __future__ import annotations

from typing import Sequence

from benchmarks.paper.apps.molecular_design import CampaignConfig
from benchmarks.paper.apps.molecular_design import run_campaign
from benchmarks.paper.figures.reporting import ResultTable

__all__ = ['run_figure11']

DEFAULT_NODE_COUNTS = (128, 256, 512, 1024)


def run_figure11(
    *,
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    base_config: CampaignConfig | None = None,
) -> ResultTable:
    """Run the utilization model for each node count and configuration."""
    table = ResultTable(
        title='Figure 11: molecular design average node utilization',
        columns=['cpu_nodes', 'configuration', 'cpu_utilization',
                 'gpu_utilization', 'result_processing_ms'],
    )
    base = base_config or CampaignConfig()
    for nodes in node_counts:
        for use_proxystore in (False, True):
            config = CampaignConfig(
                n_cpu_nodes=nodes,
                n_gpus=base.n_gpus,
                n_tasks=base.n_tasks,
                simulation_time_s=base.simulation_time_s,
                result_nbytes=base.result_nbytes,
                model_nbytes=base.model_nbytes,
                workflow_per_byte_s=base.workflow_per_byte_s,
                workflow_fixed_s=base.workflow_fixed_s,
                proxy_fixed_s=base.proxy_fixed_s,
                training_rounds=base.training_rounds,
                gpu_task_time_s=base.gpu_task_time_s,
            )
            result = run_campaign(config, use_proxystore=use_proxystore)
            table.add_row(
                cpu_nodes=nodes,
                configuration='proxystore' if use_proxystore else 'baseline',
                cpu_utilization=result.cpu_utilization,
                gpu_utilization=result.gpu_utilization,
                result_processing_ms=result.avg_result_processing_s * 1000.0,
            )
    return table
