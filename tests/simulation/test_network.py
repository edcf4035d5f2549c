"""Tests of the network fabric model."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchmarks.paper.sim import Fabric
from benchmarks.paper.sim import Host
from benchmarks.paper.sim import Link
from benchmarks.paper.sim.fabric import CLOUD_SERVICE_HOST
from benchmarks.paper.sim.fabric import paper_testbed
from benchmarks.paper.sim.network import SimulationError
from benchmarks.paper.sim.network import UnknownSiteError


def make_simple_fabric() -> Fabric:
    fabric = Fabric()
    fabric.add_site('a', internal_link=Link(1e-5, 1e9))
    fabric.add_site('b', internal_link=Link(1e-5, 1e9))
    fabric.add_host(Host('a1', 'a'))
    fabric.add_host(Host('a2', 'a'))
    fabric.add_host(Host('b1', 'b'))
    fabric.connect('a', 'b', Link(0.01, 1e8))
    return fabric


def test_link_validation():
    with pytest.raises(ValueError):
        Link(-1, 1e9)
    with pytest.raises(ValueError):
        Link(0, 0)


def test_link_transfer_time_components():
    link = Link(latency_s=0.01, bandwidth_bps=1e6, per_message_overhead_s=0.001)
    assert link.transfer_time(0) == pytest.approx(0.011)
    assert link.transfer_time(1_000_000) == pytest.approx(0.011 + 1.0)
    assert link.transfer_time(0, messages=3) == pytest.approx(0.033)
    with pytest.raises(ValueError):
        link.transfer_time(-1)
    with pytest.raises(ValueError):
        link.transfer_time(0, messages=0)


def test_link_scaled():
    link = Link(0.01, 1e6)
    slow = link.scaled(bandwidth_factor=0.5)
    assert slow.bandwidth_bps == pytest.approx(5e5)
    assert slow.latency_s == link.latency_s


def test_duplicate_site_rejected():
    fabric = Fabric()
    fabric.add_site('a', internal_link=Link(1e-5, 1e9))
    with pytest.raises(SimulationError):
        fabric.add_site('a', internal_link=Link(1e-5, 1e9))


def test_host_site_mismatch_rejected():
    fabric = Fabric()
    fabric.add_site('a', internal_link=Link(1e-5, 1e9))
    with pytest.raises(UnknownSiteError):
        fabric.add_host(Host('x', 'missing'))


def test_unknown_lookups_raise():
    fabric = make_simple_fabric()
    with pytest.raises(UnknownSiteError):
        fabric.site('zzz')
    with pytest.raises(UnknownSiteError):
        fabric.host('zzz')


def test_intra_site_uses_internal_link():
    fabric = make_simple_fabric()
    t = fabric.transfer_time('a1', 'a2', 1_000_000)
    assert t == pytest.approx(1e-5 + 1_000_000 / 1e9)


def test_same_host_is_memory_speed():
    fabric = make_simple_fabric()
    assert fabric.transfer_time('a1', 'a1', 1_000_000) < fabric.transfer_time('a1', 'a2', 1_000_000)


def test_inter_site_uses_wan_link():
    fabric = make_simple_fabric()
    t = fabric.transfer_time('a1', 'b1', 1_000_000)
    assert t == pytest.approx(0.01 + 1_000_000 / 1e8)


def test_missing_link_raises():
    fabric = make_simple_fabric()
    fabric.add_site('c', internal_link=Link(1e-5, 1e9))
    fabric.add_host(Host('c1', 'c'))
    with pytest.raises(SimulationError):
        fabric.transfer_time('a1', 'c1', 10)


def test_rtt_is_twice_one_way_latency():
    fabric = make_simple_fabric()
    assert fabric.rtt('a1', 'b1') == pytest.approx(2 * fabric.transfer_time('a1', 'b1', 0))


def test_bandwidth_factor_slows_transfer():
    fabric = make_simple_fabric()
    base = fabric.transfer_time('a1', 'b1', 10_000_000)
    throttled = fabric.transfer_time('a1', 'b1', 10_000_000, bandwidth_factor=0.1)
    assert throttled > base


def test_multi_hop_time_sums():
    fabric = make_simple_fabric()
    one = fabric.transfer_time('a1', 'b1', 1000)
    both = fabric.multi_hop_time([('a1', 'b1'), ('b1', 'a2')], 1000)
    assert both == pytest.approx(one + fabric.transfer_time('b1', 'a2', 1000))


def test_can_connect_directly_respects_nat():
    fabric = Fabric()
    fabric.add_site('natted', internal_link=Link(1e-5, 1e9), behind_nat=True)
    fabric.add_site('open', internal_link=Link(1e-5, 1e9), behind_nat=False)
    fabric.add_site('natted2', internal_link=Link(1e-5, 1e9), behind_nat=True)
    assert fabric.can_connect_directly('natted', 'natted') is True
    assert fabric.can_connect_directly('natted', 'open') is True
    assert fabric.can_connect_directly('natted', 'natted2') is False


def test_paper_testbed_has_expected_hosts():
    fabric = paper_testbed()
    for host in (
        'theta-login', 'theta-compute', 'polaris-login', 'polaris-compute',
        'perlmutter-login', 'perlmutter-compute', 'midway2-login',
        'frontera-login', 'chameleon-node-a', CLOUD_SERVICE_HOST,
    ):
        assert fabric.host(host).name == host


def test_paper_testbed_every_site_reaches_cloud():
    fabric = paper_testbed()
    for host in ('theta-login', 'midway2-login', 'frontera-login', 'perlmutter-login'):
        assert fabric.transfer_time(host, CLOUD_SERVICE_HOST, 1000) > 0


def test_paper_testbed_wan_slower_than_lan():
    fabric = paper_testbed()
    lan = fabric.transfer_time('theta-login', 'theta-compute', 10_000_000)
    wan = fabric.transfer_time('frontera-login', 'theta-compute', 10_000_000)
    assert wan > lan


def test_paper_testbed_frontera_farther_than_midway():
    fabric = paper_testbed()
    near = fabric.rtt('midway2-login', 'theta-compute')
    far = fabric.rtt('frontera-login', 'theta-compute')
    assert far > near


@given(nbytes=st.integers(0, 10**9))
def test_transfer_time_monotone_in_size(nbytes):
    fabric = make_simple_fabric()
    smaller = fabric.transfer_time('a1', 'b1', nbytes)
    larger = fabric.transfer_time('a1', 'b1', nbytes + 1000)
    assert larger >= smaller
