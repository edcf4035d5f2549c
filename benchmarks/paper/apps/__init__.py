"""Real-world application reproductions used in the paper's evaluation.

Three applications exercise ProxyStore end-to-end (Sections 5.4-5.6):

* :mod:`~benchmarks.paper.apps.defect_analysis` — real-time defect analysis
  of microscopy images dispatched from an instrument to an HPC GPU node
  (Table 2).
* :mod:`~benchmarks.paper.apps.federated_learning` — FLoX-style federated
  learning over edge devices, where only models cross the network
  (Figure 10).
* :mod:`~benchmarks.paper.apps.molecular_design` — Colmena-based molecular
  design with simulation, training and inference task types spread over CPU
  and GPU resources (Figure 11).
"""
from benchmarks.paper.apps import defect_analysis
from benchmarks.paper.apps import federated_learning
from benchmarks.paper.apps import molecular_design

__all__ = ['defect_analysis', 'federated_learning', 'molecular_design']
