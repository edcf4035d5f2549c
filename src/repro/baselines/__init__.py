"""Baseline systems the paper compares ProxyStore against.

Each baseline is a functional, from-scratch stand-in exercising the same
interaction pattern as the real system (the stand-ins are listed under
"Layer map" in ``docs/ARCHITECTURE.md``): IPFS (content-addressed peer-to-peer file sharing), DataSpaces (a
tuple-space staging abstraction) and Redis reached through an SSH tunnel.
Their wide-area timing behaviour is modelled by the corresponding cost models
in :mod:`repro.simulation.costs`.
"""
from repro.baselines.ipfs import IPFSNetwork
from repro.baselines.ipfs import IPFSNode
from repro.baselines.dataspaces import DataSpacesClient
from repro.baselines.dataspaces import DataSpacesServer
from repro.baselines.ssh_redis import SSHTunnelRedis

__all__ = [
    'DataSpacesClient',
    'DataSpacesServer',
    'IPFSNetwork',
    'IPFSNode',
    'SSHTunnelRedis',
]
