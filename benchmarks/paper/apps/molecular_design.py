"""Molecular design with surrogate models (Section 5.6 / Figure 11 of the paper).

The workflow interleaves three task types: quantum-chemistry *simulations*
(CPU nodes) that compute ionization potentials (IPs), surrogate-model
*training* and *inference* (a remote GPU node) that guide which candidates to
simulate next.  A Colmena Thinker orchestrates everything and — without
ProxyStore — every simulation result and model flows through the workflow
system, whose serial result handling becomes the bottleneck at scale.

This module provides (a) the domain pieces — synthetic candidate molecules, a
cheap "quantum chemistry" ground truth and a ridge-regression surrogate — and
(b) a virtual-time campaign simulator that measures average CPU-node and GPU
utilization with and without proxying, which is exactly what Figure 11 plots.
"""
from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field

import numpy as np

__all__ = [
    'CampaignConfig',
    'CampaignResult',
    'MoleculeDataset',
    'SurrogateModel',
    'simulate_ionization_potential',
    'run_campaign',
]

_FEATURES = 32


@dataclass
class MoleculeDataset:
    """A candidate set of molecules described by fixed-length feature vectors."""

    features: np.ndarray
    true_ip: np.ndarray

    @classmethod
    def generate(cls, n_molecules: int = 512, *, seed: int = 0) -> 'MoleculeDataset':
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n_molecules, _FEATURES)).astype(np.float64)
        weights = rng.normal(size=_FEATURES)
        true_ip = features @ weights + 0.25 * rng.normal(size=n_molecules)
        return cls(features=features, true_ip=true_ip)

    def __len__(self) -> int:
        return len(self.true_ip)


def simulate_ionization_potential(dataset: MoleculeDataset, index: int) -> float:
    """The "quantum chemistry" simulation: returns the molecule's true IP."""
    return float(dataset.true_ip[index])


class SurrogateModel:
    """Ridge-regression surrogate predicting IPs from molecular features."""

    def __init__(self, regularization: float = 1e-3) -> None:
        self.regularization = regularization
        self.coefficients: np.ndarray | None = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> 'SurrogateModel':
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        gram = x.T @ x + self.regularization * np.eye(x.shape[1])
        self.coefficients = np.linalg.solve(gram, x.T @ y)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.coefficients is None:
            raise ValueError('the surrogate has not been trained yet')
        return np.asarray(features, dtype=np.float64) @ self.coefficients

    def rank_candidates(self, features: np.ndarray, *, top_k: int = 10) -> np.ndarray:
        """Indices of the ``top_k`` candidates with the highest predicted IP."""
        predictions = self.predict(features)
        return np.argsort(predictions)[::-1][:top_k]


# --------------------------------------------------------------------------- #
# Campaign-level utilization model (Figure 11)
# --------------------------------------------------------------------------- #
@dataclass
class CampaignConfig:
    """Parameters of one utilization measurement.

    The defaults are scaled-down but proportionate stand-ins for the paper's
    deployment (Theta KNL nodes for simulation, one remote GPU node for
    training/inference, ~1 MB simulation results, 10 MB model weights).
    """

    n_cpu_nodes: int = 128
    n_gpus: int = 16
    n_tasks: int = 2000
    simulation_time_s: float = 30.0
    result_nbytes: int = 1_000_000
    model_nbytes: int = 10_000_000
    #: Serial per-result handling time in the Thinker/task server, per byte,
    #: when results travel through the workflow system (baseline).
    workflow_per_byte_s: float = 5.5e-8
    #: Fixed per-result handling time (scheduling, bookkeeping).
    workflow_fixed_s: float = 0.02
    #: Per-result handling time when only proxies flow through the system.
    proxy_fixed_s: float = 0.02
    #: Rounds of surrogate training per campaign and GPU transfer behaviour.
    training_rounds: int = 8
    gpu_task_time_s: float = 20.0
    wan_bandwidth_bps: float = 2.0e9 / 8
    rtc_bandwidth_bps: float = 2.0e9 / 8 * 0.08
    cloud_overhead_s: float = 0.7


@dataclass
class CampaignResult:
    """Utilization measurements for one configuration."""

    n_cpu_nodes: int
    use_proxystore: bool
    cpu_utilization: float
    gpu_utilization: float
    avg_result_processing_s: float
    makespan_s: float
    extras: dict = field(default_factory=dict)


def _result_processing_time(config: CampaignConfig, use_proxystore: bool) -> float:
    """Serial time the Thinker/task server spends per simulation result."""
    if use_proxystore:
        return config.proxy_fixed_s
    return config.workflow_fixed_s + config.result_nbytes * config.workflow_per_byte_s


def run_campaign(config: CampaignConfig, *, use_proxystore: bool) -> CampaignResult:
    """Run the utilization model for one node count / configuration.

    The model captures the paper's bottleneck: simulation results must be
    processed serially by the steering process before a new simulation can be
    dispatched to the idle node.  When per-result processing (dominated by
    data movement through the workflow system in the baseline) cannot keep up
    with the aggregate completion rate of the CPU nodes, nodes sit idle and
    utilization falls; proxying the results shrinks the serial work and
    restores scaling.  GPU utilization additionally depends on how quickly
    model weights and inference inputs reach the remote GPU node.
    """
    per_result = _result_processing_time(config, use_proxystore)
    sim_time = config.simulation_time_s
    n_nodes = config.n_cpu_nodes

    # Steady-state CPU utilization of a closed queueing loop: each node cycles
    # through (simulate -> wait for serial result processing + redispatch).
    # The serial server can sustain 1/per_result results per second; the nodes
    # would like to complete n_nodes/sim_time results per second.
    offered_rate = n_nodes / sim_time
    service_rate = 1.0 / per_result
    if offered_rate <= service_rate:
        cpu_utilization = sim_time / (sim_time + per_result)
    else:
        # Saturated: each cycle effectively takes n_nodes * per_result.
        cpu_utilization = (sim_time / (n_nodes * per_result))
    cpu_utilization = min(1.0, cpu_utilization)

    # GPU utilization: each training/inference round moves model weights and
    # an inference batch to the remote GPU node, then computes.
    if use_proxystore:
        transfer = config.model_nbytes / config.rtc_bandwidth_bps + 0.5
        # The inference dataset is static: later rounds hit the endpoint cache.
        repeat_transfer = 0.5
    else:
        transfer = (
            2 * config.model_nbytes / config.wan_bandwidth_bps
            + 2 * config.cloud_overhead_s
        )
        repeat_transfer = transfer
    first_round = config.gpu_task_time_s / (config.gpu_task_time_s + transfer)
    later_rounds = config.gpu_task_time_s / (config.gpu_task_time_s + repeat_transfer)
    gpu_utilization = (
        first_round + (config.training_rounds - 1) * later_rounds
    ) / config.training_rounds
    # The GPU is also starved when the CPU side cannot produce results fast
    # enough to keep the training pipeline fed.
    gpu_utilization *= 0.5 + 0.5 * cpu_utilization
    gpu_utilization = min(1.0, gpu_utilization)

    makespan = config.n_tasks * max(per_result, sim_time / n_nodes)
    return CampaignResult(
        n_cpu_nodes=n_nodes,
        use_proxystore=use_proxystore,
        cpu_utilization=cpu_utilization,
        gpu_utilization=gpu_utilization,
        avg_result_processing_s=per_result,
        makespan_s=makespan,
        extras={'offered_rate': offered_rate, 'service_rate': service_rate},
    )
