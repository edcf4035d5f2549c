"""Baseline systems the paper compares ProxyStore against.

Each baseline is a functional, from-scratch stand-in exercising the same
interaction pattern as the real system: IPFS (content-addressed peer-to-peer
file sharing) and DataSpaces (a tuple-space staging abstraction).  Their
wide-area timing behaviour is modelled by the corresponding cost models in
:mod:`benchmarks.paper.sim.costs`.  The third baseline, Redis reached through
an SSH tunnel, is a plain :class:`repro.kvserver.KVClient` whose tunnel
exists only as ``SSHTunnelRedisCost``.
"""
from benchmarks.paper.baselines.dataspaces import DataSpacesClient
from benchmarks.paper.baselines.dataspaces import DataSpacesServer
from benchmarks.paper.baselines.ipfs import IPFSNetwork
from benchmarks.paper.baselines.ipfs import IPFSNode

__all__ = [
    'DataSpacesClient',
    'DataSpacesServer',
    'IPFSNetwork',
    'IPFSNode',
]
