"""Virtual-time network simulation substrate.

The paper's evaluation spans six real machines connected by LAN, HPC
interconnect and wide-area networks.  None of that hardware is available to
this reproduction, so the benchmarks run the *real* library code paths while
charging communication time to a virtual clock according to a fabric of
sites, hosts and links whose latency/bandwidth parameters are calibrated to
the paper's testbed.  See "Simulation and harnesses" in
``docs/ARCHITECTURE.md`` for the substitution rationale.
"""
from repro.simulation.clock import VirtualClock
from repro.simulation.network import Fabric
from repro.simulation.network import Host
from repro.simulation.network import Link
from repro.simulation.network import Site
from repro.simulation.fabric import paper_testbed
from repro.simulation.payload import payload_of_size
from repro.simulation.payload import size_sweep

__all__ = [
    'Fabric',
    'Host',
    'Link',
    'Site',
    'VirtualClock',
    'paper_testbed',
    'payload_of_size',
    'size_sweep',
]
