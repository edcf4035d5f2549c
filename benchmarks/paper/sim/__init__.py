"""Virtual-time network simulation substrate.

The paper's evaluation spans six real machines connected by LAN, HPC
interconnect and wide-area networks.  None of that hardware is available to
this reproduction, so the benchmarks run the *real* library code paths while
charging communication time to a virtual clock according to a fabric of
sites, hosts and links whose latency/bandwidth parameters are calibrated to
the paper's testbed.  See ``benchmarks/paper/README.md`` for the substitution
rationale.
"""
from benchmarks.paper.sim.clock import VirtualClock
from benchmarks.paper.sim.fabric import paper_testbed
from benchmarks.paper.sim.network import Fabric
from benchmarks.paper.sim.network import Host
from benchmarks.paper.sim.network import Link
from benchmarks.paper.sim.network import Site
from benchmarks.paper.sim.payload import payload_of_size
from benchmarks.paper.sim.payload import size_sweep

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
