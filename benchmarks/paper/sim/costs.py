"""Virtual-time cost models for the communication methods in the evaluation.

Each model answers two questions in virtual seconds: what it costs a producer
on ``host`` to make an object available (``put_cost``), and what it costs a
consumer on ``consumer_host`` to obtain an object produced on ``origin_host``
(``get_cost``).  The benchmark harness wires these models to *real* connector
traffic through :class:`~benchmarks.paper.sim.costed.CostedConnector`, so the
virtual times reported for each figure correspond to actual put/get calls the
library executed.

The models encode the qualitative behaviours the paper measures:

* cloud-mediated transfer pays two WAN hops plus per-request service overhead;
* a shared file system is fast but intra-site only;
* a central Redis-like server pays one round trip to the server's host;
* PS-endpoints are cheap to put to (local endpoint) and pay a throttled WAN
  data-channel plus a one-time peering setup on first remote fetch;
* Globus has a large fixed per-task overhead but near-line-rate bulk bandwidth;
* IPFS adds content hashing and disk I/O around a peer-to-peer WAN fetch;
* DataSpaces behaves like an RDMA-backed staging store with a startup cost;
* Redis over an SSH tunnel pays the WAN round trip plus tunnel encryption
  overhead per message.
"""
from __future__ import annotations

from abc import ABC
from abc import abstractmethod
from dataclasses import dataclass
from dataclasses import field

from benchmarks.paper.sim.fabric import CLOUD_REQUEST_OVERHEAD_S
from benchmarks.paper.sim.fabric import CLOUD_SERVICE_HOST
from benchmarks.paper.sim.fabric import GLOBUS_TASK_OVERHEAD_S
from benchmarks.paper.sim.fabric import RTC_BANDWIDTH_FACTOR
from benchmarks.paper.sim.fabric import RTC_SETUP_OVERHEAD_S
from benchmarks.paper.sim.network import Fabric

__all__ = [
    'TransferCostModel',
    'CloudRelayCost',
    'SharedFilesystemCost',
    'CentralServerCost',
    'DistributedMemoryCost',
    'EndpointPeerCost',
    'GlobusTransferCost',
    'IPFSCost',
    'DataSpacesCost',
    'SSHTunnelRedisCost',
]

#: Software overhead of a local put/get in a well-tuned in-memory store.
_LOCAL_OP_OVERHEAD_S = 2e-4


class TransferCostModel(ABC):
    """Virtual cost of making an object available and of fetching it."""

    name = 'model'

    @abstractmethod
    def put_cost(self, nbytes: int, host: str) -> float:
        """Seconds for a producer on ``host`` to store an object of ``nbytes``."""

    @abstractmethod
    def get_cost(
        self,
        nbytes: int,
        origin_host: str,
        consumer_host: str,
        *,
        first_fetch: bool = True,
    ) -> float:
        """Seconds for ``consumer_host`` to obtain an object produced on ``origin_host``."""

    def roundtrip_cost(self, nbytes: int, origin_host: str, consumer_host: str) -> float:
        """Convenience: produce then consume once."""
        return self.put_cost(nbytes, origin_host) + self.get_cost(
            nbytes, origin_host, consumer_host,
        )


@dataclass
class CloudRelayCost(TransferCostModel):
    """Baseline: data rides with the task through the FaaS cloud service."""

    fabric: Fabric
    request_overhead_s: float = CLOUD_REQUEST_OVERHEAD_S
    #: Rate at which the cloud service ingests/serves payload bytes (storage
    #: backend writes, quota accounting); matches CloudFaaSService's default.
    payload_processing_bps: float = 2e6
    name: str = 'cloud-transfer'

    def put_cost(self, nbytes: int, host: str) -> float:
        # Upload alongside the task submission request.
        return (
            self.fabric.transfer_time(host, CLOUD_SERVICE_HOST, nbytes)
            + nbytes / self.payload_processing_bps
            + self.request_overhead_s
        )

    def get_cost(self, nbytes, origin_host, consumer_host, *, first_fetch=True):
        # Download from the cloud to wherever the task runs.
        return (
            self.fabric.transfer_time(CLOUD_SERVICE_HOST, consumer_host, nbytes)
            + nbytes / self.payload_processing_bps
            + self.request_overhead_s
        )


@dataclass
class SharedFilesystemCost(TransferCostModel):
    """FileConnector on a site-shared parallel file system."""

    fabric: Fabric
    name: str = 'file'

    def put_cost(self, nbytes: int, host: str) -> float:
        h = self.fabric.host(host)
        return _LOCAL_OP_OVERHEAD_S + nbytes / h.disk_write_bps

    def get_cost(self, nbytes, origin_host, consumer_host, *, first_fetch=True):
        h = self.fabric.host(consumer_host)
        # Metadata + data over the site interconnect, then a disk read.
        network = self.fabric.transfer_time(origin_host, consumer_host, nbytes)
        return _LOCAL_OP_OVERHEAD_S + network + nbytes / h.disk_read_bps


@dataclass
class CentralServerCost(TransferCostModel):
    """RedisConnector-style central in-memory server on ``server_host``."""

    fabric: Fabric
    server_host: str
    name: str = 'redis'

    def put_cost(self, nbytes: int, host: str) -> float:
        return _LOCAL_OP_OVERHEAD_S + self.fabric.transfer_time(host, self.server_host, nbytes)

    def get_cost(self, nbytes, origin_host, consumer_host, *, first_fetch=True):
        return _LOCAL_OP_OVERHEAD_S + self.fabric.transfer_time(
            self.server_host, consumer_host, nbytes,
        )


@dataclass
class DistributedMemoryCost(TransferCostModel):
    """Margo/UCX/ZMQ distributed in-memory stores.

    ``software_efficiency`` models the transport stack: RDMA (Margo) ~1.0,
    UCX slightly lower on commodity NICs, TCP/ZMQ lower still.
    """

    fabric: Fabric
    software_efficiency: float = 1.0
    startup_overhead_s: float = 0.0
    name: str = 'dim'

    _started_hosts: set = field(default_factory=set)

    def put_cost(self, nbytes: int, host: str) -> float:
        cost = _LOCAL_OP_OVERHEAD_S + nbytes / (20e9 * self.software_efficiency)
        if host not in self._started_hosts:
            # First use on a node spawns the local storage server.
            self._started_hosts.add(host)
            cost += self.startup_overhead_s
        return cost

    def get_cost(self, nbytes, origin_host, consumer_host, *, first_fetch=True):
        return _LOCAL_OP_OVERHEAD_S + self.fabric.transfer_time(
            origin_host, consumer_host, nbytes,
            bandwidth_factor=self.software_efficiency,
        )


@dataclass
class EndpointPeerCost(TransferCostModel):
    """PS-endpoints: local put, peer-to-peer WAN fetch over a throttled channel.

    Peer connections are persistent: the relay-mediated setup cost is paid
    once per (origin site, consumer site) pair and reused for every
    subsequent object, exactly as the endpoints keep their WebRTC connections
    open until stopped.
    """

    fabric: Fabric
    rtc_bandwidth_factor: float = RTC_BANDWIDTH_FACTOR
    peering_setup_s: float = RTC_SETUP_OVERHEAD_S
    name: str = 'endpoint'

    _peered_sites: set = field(default_factory=set)

    def put_cost(self, nbytes: int, host: str) -> float:
        # Client to its local (same-site) endpoint.
        site = self.fabric.host(host).site
        link = self.fabric.site(site).internal_link
        return _LOCAL_OP_OVERHEAD_S + link.transfer_time(nbytes)

    def get_cost(self, nbytes, origin_host, consumer_host, *, first_fetch=True):
        consumer_site = self.fabric.host(consumer_host).site
        origin_site = self.fabric.host(origin_host).site
        # Hop 1: consumer to its local endpoint.
        local_link = self.fabric.site(consumer_site).internal_link
        cost = _LOCAL_OP_OVERHEAD_S + local_link.transfer_time(nbytes)
        if origin_site == consumer_site:
            # Same site, but the object may live on a different node's
            # endpoint: the local endpoint forwards over the site network,
            # which is the "extra hop" the paper identifies for the
            # Theta-to-Theta case.
            if origin_host != consumer_host:
                cost += local_link.transfer_time(nbytes)
            return cost
        # Hop 2: local endpoint to the remote endpoint over the data channel.
        # Connections are bidirectional, so the pair is order-insensitive.
        site_pair = tuple(sorted((origin_site, consumer_site)))
        if site_pair not in self._peered_sites:
            self._peered_sites.add(site_pair)
            cost += self.peering_setup_s
        cost += self.fabric.transfer_time(
            origin_host, consumer_host, nbytes,
            bandwidth_factor=self.rtc_bandwidth_factor,
        )
        return cost


@dataclass
class GlobusTransferCost(TransferCostModel):
    """GlobusConnector: disk-to-disk bulk transfer managed by a cloud service."""

    fabric: Fabric
    task_overhead_s: float = GLOBUS_TASK_OVERHEAD_S
    name: str = 'globus'

    def put_cost(self, nbytes: int, host: str) -> float:
        h = self.fabric.host(host)
        # Write the object file locally and submit the transfer task.
        return nbytes / h.disk_write_bps + 0.05

    def get_cost(self, nbytes, origin_host, consumer_host, *, first_fetch=True):
        src = self.fabric.host(origin_host)
        dst = self.fabric.host(consumer_host)
        cost = 0.0
        if first_fetch:
            # Wait for the transfer task: fixed SaaS overhead plus the WAN copy
            # (Globus drives the network efficiently: no bandwidth penalty).
            cost += self.task_overhead_s
            cost += self.fabric.transfer_time(origin_host, consumer_host, nbytes)
            cost += nbytes / src.disk_read_bps + nbytes / dst.disk_write_bps
        # Read the transferred file from the local file system.
        cost += nbytes / dst.disk_read_bps + _LOCAL_OP_OVERHEAD_S
        return cost


@dataclass
class IPFSCost(TransferCostModel):
    """IPFS baseline: content-addressed add, peer fetch, local read."""

    fabric: Fabric
    hashing_bps: float = 0.5e9
    name: str = 'ipfs'

    def put_cost(self, nbytes: int, host: str) -> float:
        h = self.fabric.host(host)
        # Write the file, then `ipfs add` chunks and hashes it.
        return nbytes / h.disk_write_bps + nbytes / self.hashing_bps + 0.02

    def get_cost(self, nbytes, origin_host, consumer_host, *, first_fetch=True):
        dst = self.fabric.host(consumer_host)
        cost = 0.05  # DHT/content resolution
        if first_fetch:
            cost += self.fabric.transfer_time(
                origin_host, consumer_host, nbytes, bandwidth_factor=0.5,
            )
            cost += nbytes / dst.disk_write_bps
        cost += nbytes / dst.disk_read_bps
        return cost


@dataclass
class DataSpacesCost(TransferCostModel):
    """DataSpaces baseline: staging servers with RDMA transport and startup cost."""

    fabric: Fabric
    software_efficiency: float = 0.9
    startup_overhead_s: float = 0.35
    name: str = 'dataspaces'

    _started_hosts: set = field(default_factory=set)

    def put_cost(self, nbytes: int, host: str) -> float:
        cost = 5e-4 + nbytes / (20e9 * self.software_efficiency)
        if host not in self._started_hosts:
            self._started_hosts.add(host)
            cost += self.startup_overhead_s
        return cost

    def get_cost(self, nbytes, origin_host, consumer_host, *, first_fetch=True):
        return 5e-4 + self.fabric.transfer_time(
            origin_host, consumer_host, nbytes,
            bandwidth_factor=self.software_efficiency,
        )


@dataclass
class SSHTunnelRedisCost(TransferCostModel):
    """Redis on the target site reached through a manually created SSH tunnel."""

    fabric: Fabric
    server_host: str
    encryption_bps: float = 2.0e9
    name: str = 'redis+ssh'

    def put_cost(self, nbytes: int, host: str) -> float:
        return (
            _LOCAL_OP_OVERHEAD_S
            + self.fabric.transfer_time(host, self.server_host, nbytes)
            + nbytes / self.encryption_bps
        )

    def get_cost(self, nbytes, origin_host, consumer_host, *, first_fetch=True):
        return (
            _LOCAL_OP_OVERHEAD_S
            + self.fabric.transfer_time(self.server_host, consumer_host, nbytes)
            + nbytes / self.encryption_bps
        )
