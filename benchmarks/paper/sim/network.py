"""Sites, hosts and links: the simulated communication fabric.

A :class:`Fabric` is a graph of named sites.  Each site has an internal link
(modelling its LAN / HPC interconnect and shared file system) and optional
NAT (which matters for which connectors are usable between sites, mirroring
Section 2 of the paper).  Inter-site links carry wide-area latency and
bandwidth.  The single primitive everything else builds on is
:meth:`Fabric.transfer_time`: the virtual seconds needed to move ``nbytes``
between two hosts.
"""
from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field
from typing import Iterable

from repro.exceptions import ReproError

__all__ = ['Link', 'Host', 'Site', 'Fabric', 'SimulationError', 'UnknownSiteError']


class SimulationError(ReproError):
    """Base class for errors in the network/time simulation substrate."""


class UnknownSiteError(SimulationError):
    """Raised when a fabric lookup references a site that does not exist."""


@dataclass(frozen=True)
class Link:
    """A directed or symmetric network link.

    Attributes:
        latency_s: one-way latency in seconds added per message.
        bandwidth_bps: usable bandwidth in bytes per second.
        per_message_overhead_s: fixed software overhead per message (protocol
            processing, framing) added on top of latency.
    """

    latency_s: float
    bandwidth_bps: float
    per_message_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.per_message_overhead_s < 0:
            raise ValueError('latencies must be non-negative')
        if self.bandwidth_bps <= 0:
            raise ValueError('bandwidth must be positive')

    def transfer_time(self, nbytes: int, *, messages: int = 1) -> float:
        """Virtual seconds to move ``nbytes`` in ``messages`` messages over this link."""
        if nbytes < 0:
            raise ValueError('nbytes must be non-negative')
        if messages < 1:
            raise ValueError('messages must be at least 1')
        fixed = messages * (self.latency_s + self.per_message_overhead_s)
        return fixed + nbytes / self.bandwidth_bps

    def scaled(self, bandwidth_factor: float = 1.0, latency_factor: float = 1.0) -> 'Link':
        """Return a copy with scaled bandwidth/latency (used to model slow protocols)."""
        return Link(
            latency_s=self.latency_s * latency_factor,
            bandwidth_bps=self.bandwidth_bps * bandwidth_factor,
            per_message_overhead_s=self.per_message_overhead_s * latency_factor,
        )


@dataclass(frozen=True)
class Host:
    """A named host located at a site.

    Attributes:
        name: unique host name within the fabric (e.g. ``'theta-login'``).
        site: name of the site the host belongs to.
        kind: free-form role tag (``'login'``, ``'compute'``, ``'edge'``...).
        disk_write_bps / disk_read_bps: local or shared file system speeds,
            used by the file- and disk-based connectors' cost models.
    """

    name: str
    site: str
    kind: str = 'compute'
    disk_write_bps: float = 1.0e9
    disk_read_bps: float = 2.0e9


@dataclass
class Site:
    """A site: a set of hosts sharing a LAN and (optionally) a NAT."""

    name: str
    internal_link: Link
    behind_nat: bool = True
    hosts: dict[str, Host] = field(default_factory=dict)

    def add_host(self, host: Host) -> Host:
        if host.site != self.name:
            raise SimulationError(
                f'host {host.name!r} declares site {host.site!r}, expected {self.name!r}',
            )
        self.hosts[host.name] = host
        return host


class Fabric:
    """A collection of sites and the links between them."""

    def __init__(self) -> None:
        self._sites: dict[str, Site] = {}
        self._hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], Link] = {}

    # -- construction ----------------------------------------------------- #
    def add_site(
        self,
        name: str,
        *,
        internal_link: Link,
        behind_nat: bool = True,
    ) -> Site:
        """Create and register a site."""
        if name in self._sites:
            raise SimulationError(f'site {name!r} already exists')
        site = Site(name=name, internal_link=internal_link, behind_nat=behind_nat)
        self._sites[name] = site
        return site

    def add_host(self, host: Host) -> Host:
        """Register a host with its (already created) site."""
        site = self.site(host.site)
        site.add_host(host)
        self._hosts[host.name] = host
        return host

    def connect(self, site_a: str, site_b: str, link: Link) -> None:
        """Create a symmetric wide-area link between two sites."""
        self.site(site_a)
        self.site(site_b)
        self._links[(site_a, site_b)] = link
        self._links[(site_b, site_a)] = link

    # -- lookups ----------------------------------------------------------- #
    def site(self, name: str) -> Site:
        try:
            return self._sites[name]
        except KeyError:
            raise UnknownSiteError(f'unknown site {name!r}') from None

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise UnknownSiteError(f'unknown host {name!r}') from None

    def sites(self) -> list[str]:
        return sorted(self._sites)

    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def link_between(self, site_a: str, site_b: str) -> Link:
        """Return the link between two sites (a site's internal link if equal)."""
        if site_a == site_b:
            return self.site(site_a).internal_link
        try:
            return self._links[(site_a, site_b)]
        except KeyError:
            raise SimulationError(
                f'no link between sites {site_a!r} and {site_b!r}',
            ) from None

    def same_site(self, host_a: str, host_b: str) -> bool:
        return self.host(host_a).site == self.host(host_b).site

    def can_connect_directly(self, site_a: str, site_b: str) -> bool:
        """Whether hosts at the two sites can open direct TCP connections.

        Two hosts behind different NATs cannot connect directly (they need a
        relay/hole-punching mechanism such as PS-endpoints, or a mediating
        cloud service), which is the central networking constraint motivating
        the paper's endpoint design.
        """
        if site_a == site_b:
            return True
        return not (self.site(site_a).behind_nat and self.site(site_b).behind_nat)

    # -- costs ------------------------------------------------------------- #
    def transfer_time(
        self,
        src_host: str,
        dst_host: str,
        nbytes: int,
        *,
        messages: int = 1,
        bandwidth_factor: float = 1.0,
        latency_factor: float = 1.0,
    ) -> float:
        """Virtual seconds to move ``nbytes`` from ``src_host`` to ``dst_host``.

        ``bandwidth_factor``/``latency_factor`` scale the underlying link and
        are used to model protocol inefficiencies (e.g. the paper's
        observation that aiortc data channels only achieve a fraction of the
        available WAN bandwidth) or accelerations (RDMA bypassing the kernel).
        """
        if src_host == dst_host:
            # Same-host communication is modelled as memory-speed copying.
            return nbytes / 20e9
        src = self.host(src_host)
        dst = self.host(dst_host)
        link = self.link_between(src.site, dst.site)
        link = link.scaled(bandwidth_factor=bandwidth_factor, latency_factor=latency_factor)
        return link.transfer_time(nbytes, messages=messages)

    def rtt(self, host_a: str, host_b: str) -> float:
        """Round-trip latency (seconds) of a zero-byte message exchange."""
        return 2 * self.transfer_time(host_a, host_b, 0)

    def multi_hop_time(
        self,
        hops: Iterable[tuple[str, str]],
        nbytes: int,
        **kwargs,
    ) -> float:
        """Sum transfer times over a sequence of (src, dst) host hops."""
        return sum(self.transfer_time(a, b, nbytes, **kwargs) for a, b in hops)
