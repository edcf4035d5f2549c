"""The simulated testbed used by the benchmark harness.

:func:`paper_testbed` builds a :class:`~benchmarks.paper.sim.network.Fabric`
whose sites and links correspond to the machines used in the paper's
evaluation (Section 5): Theta and Polaris at ALCF, Perlmutter at NERSC,
Frontera at TACC, Midway2 at UChicago, Chameleon Cloud bare-metal nodes, a
set of edge devices (for the federated-learning application), and the public
cloud hosting the FaaS service.

The latency/bandwidth figures are order-of-magnitude estimates of the real
testbed, chosen so that the *relative* behaviours the paper reports (cloud
round-trips dominated by two WAN hops, Globus's high fixed overhead but high
bulk bandwidth, aiortc's constrained WAN throughput, RDMA beating TCP
intra-site) are preserved.  Absolute values are not expected to match the
paper.
"""
from __future__ import annotations

from benchmarks.paper.sim.network import Fabric
from benchmarks.paper.sim.network import Host
from benchmarks.paper.sim.network import Link

__all__ = [
    'paper_testbed',
    'CLOUD_SERVICE_HOST',
    'CLOUD_REQUEST_OVERHEAD_S',
    'GLOBUS_TASK_OVERHEAD_S',
    'RTC_BANDWIDTH_FACTOR',
    'RTC_SETUP_OVERHEAD_S',
]

#: Host name of the cloud service (Globus Compute / relay server hosting).
CLOUD_SERVICE_HOST = 'cloud-service'

#: Fixed service-side processing time per cloud API request (task submit,
#: result fetch, ...).  Globus Compute round trips for tiny payloads are on
#: the order of a second in the paper; two WAN hops plus two service
#: overheads of this size reproduce that magnitude.
CLOUD_REQUEST_OVERHEAD_S = 0.35

#: Fixed overhead of a Globus transfer task (submission, polling granularity,
#: SaaS scheduling).  The paper observes that Globus is not competitive for
#: small transfers because of exactly this overhead.
GLOBUS_TASK_OVERHEAD_S = 3.0

#: Fraction of the nominal WAN bandwidth achievable by an aiortc
#: RTCDataChannel (the paper measured ~80 Mbps where far more was available;
#: computing centres throttle UDP and aiortc congestion control is slow).
RTC_BANDWIDTH_FACTOR = 0.08

#: One-time overhead of establishing a WebRTC peer connection via the relay
#: server (SDP + ICE exchange and hole punching).
RTC_SETUP_OVERHEAD_S = 0.5


def _hpc_interconnect(bandwidth_gbps: float, latency_us: float) -> Link:
    return Link(
        latency_s=latency_us * 1e-6,
        bandwidth_bps=bandwidth_gbps * 1e9 / 8,
        per_message_overhead_s=5e-6,
    )


def _wan(latency_ms: float, bandwidth_gbps: float) -> Link:
    return Link(
        latency_s=latency_ms * 1e-3,
        bandwidth_bps=bandwidth_gbps * 1e9 / 8,
        per_message_overhead_s=2e-4,
    )


def paper_testbed() -> Fabric:
    """Return a fabric modelling the paper's evaluation testbed."""
    fabric = Fabric()

    # --- sites --------------------------------------------------------- #
    # ALCF hosts both Theta (Aries dragonfly) and Polaris (Slingshot 11).
    fabric.add_site('alcf-theta', internal_link=_hpc_interconnect(100, 2.0))
    fabric.add_site('alcf-polaris', internal_link=_hpc_interconnect(200, 2.0))
    fabric.add_site('nersc', internal_link=_hpc_interconnect(200, 2.0))
    fabric.add_site('uchicago', internal_link=_hpc_interconnect(40, 10.0))
    fabric.add_site('tacc', internal_link=_hpc_interconnect(100, 2.0))
    fabric.add_site('chameleon', internal_link=_hpc_interconnect(40, 5.0))
    fabric.add_site('edge', internal_link=_wan(5.0, 0.3))
    fabric.add_site('cloud', internal_link=_hpc_interconnect(25, 50.0), behind_nat=False)

    # --- hosts --------------------------------------------------------- #
    fabric.add_host(Host('theta-login', 'alcf-theta', kind='login',
                         disk_write_bps=0.8e9, disk_read_bps=1.5e9))
    fabric.add_host(Host('theta-compute', 'alcf-theta', kind='compute',
                         disk_write_bps=0.8e9, disk_read_bps=1.5e9))
    fabric.add_host(Host('theta-compute-2', 'alcf-theta', kind='compute',
                         disk_write_bps=0.8e9, disk_read_bps=1.5e9))
    fabric.add_host(Host('polaris-login', 'alcf-polaris', kind='login',
                         disk_write_bps=1.5e9, disk_read_bps=3.0e9))
    fabric.add_host(Host('polaris-compute', 'alcf-polaris', kind='compute',
                         disk_write_bps=1.5e9, disk_read_bps=3.0e9))
    fabric.add_host(Host('perlmutter-login', 'nersc', kind='login',
                         disk_write_bps=2.0e9, disk_read_bps=4.0e9))
    fabric.add_host(Host('perlmutter-compute', 'nersc', kind='compute',
                         disk_write_bps=2.0e9, disk_read_bps=4.0e9))
    fabric.add_host(Host('midway2-login', 'uchicago', kind='login',
                         disk_write_bps=0.5e9, disk_read_bps=1.0e9))
    fabric.add_host(Host('frontera-login', 'tacc', kind='login',
                         # The paper notes Frontera's slower client file system.
                         disk_write_bps=0.2e9, disk_read_bps=0.4e9))
    fabric.add_host(Host('chameleon-node-a', 'chameleon', kind='compute',
                         disk_write_bps=0.5e9, disk_read_bps=1.0e9))
    fabric.add_host(Host('chameleon-node-b', 'chameleon', kind='compute',
                         disk_write_bps=0.5e9, disk_read_bps=1.0e9))
    fabric.add_host(Host(CLOUD_SERVICE_HOST, 'cloud', kind='service',
                         disk_write_bps=2.0e9, disk_read_bps=4.0e9))
    fabric.add_host(Host('gpu-server', 'uchicago', kind='gpu',
                         disk_write_bps=1.0e9, disk_read_bps=2.0e9))
    for i in range(4):
        fabric.add_host(Host(f'edge-device-{i}', 'edge', kind='edge',
                             disk_write_bps=0.05e9, disk_read_bps=0.1e9))

    # --- wide-area links ------------------------------------------------ #
    # ALCF <-> UChicago: both in the Chicago area; low latency, ESnet-grade.
    fabric.connect('alcf-theta', 'uchicago', _wan(2.0, 10))
    fabric.connect('alcf-polaris', 'uchicago', _wan(2.0, 10))
    fabric.connect('alcf-theta', 'alcf-polaris', _wan(0.5, 40))
    # ALCF <-> TACC: ~1500 km (the paper's Frontera -> Theta case).
    fabric.connect('alcf-theta', 'tacc', _wan(26.0, 5))
    fabric.connect('alcf-polaris', 'tacc', _wan(26.0, 5))
    fabric.connect('uchicago', 'tacc', _wan(27.0, 5))
    # ALCF <-> NERSC.
    fabric.connect('alcf-theta', 'nersc', _wan(45.0, 8))
    fabric.connect('alcf-polaris', 'nersc', _wan(45.0, 8))
    # Chameleon (UChicago/TACC-hosted testbed).
    fabric.connect('chameleon', 'uchicago', _wan(3.0, 4))
    fabric.connect('chameleon', 'alcf-theta', _wan(4.0, 4))
    fabric.connect('chameleon', 'cloud', _wan(25.0, 2))
    # Everything can reach the public cloud service.
    for site in ('alcf-theta', 'alcf-polaris', 'nersc', 'uchicago', 'tacc', 'edge'):
        latency = {'alcf-theta': 20.0, 'alcf-polaris': 20.0, 'nersc': 35.0,
                   'uchicago': 18.0, 'tacc': 30.0, 'edge': 40.0}[site]
        bandwidth = {'edge': 0.2}.get(site, 2.0)
        fabric.connect(site, 'cloud', _wan(latency, bandwidth))
    # Edge devices reach other sites only via the cloud in practice, but a
    # (slow, NAT-traversing) peer path exists for the endpoint experiments.
    fabric.connect('edge', 'uchicago', _wan(30.0, 0.3))
    fabric.connect('edge', 'alcf-theta', _wan(35.0, 0.3))
    fabric.connect('edge', 'alcf-polaris', _wan(35.0, 0.3))
    fabric.connect('nersc', 'uchicago', _wan(48.0, 5))
    fabric.connect('nersc', 'tacc', _wan(40.0, 5))

    return fabric
