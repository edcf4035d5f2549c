"""Tests for GlobusConnector."""
from __future__ import annotations

import pytest

from repro.connectors.globus import GlobusConnector
from repro.connectors.globus import current_hostname
from repro.connectors.globus import set_current_hostname
from repro.exceptions import ConnectorError
from repro.exceptions import TransferError
from repro.connectors.globus_service import GlobusEndpointSpec
from repro.connectors.globus_service import GlobusTransferService
from repro.connectors.globus_service import reset_transfer_service
from tests.connectors.behavior import ConnectorBehavior


@pytest.fixture(autouse=True)
def _clean_service():
    yield
    reset_transfer_service()
    set_current_hostname(None)


@pytest.fixture()
def service():
    return GlobusTransferService()


def make_two_site_connector(tmp_path, service):
    """Connector mapping 'site-a*' and 'site-b*' hostnames to two endpoints."""
    spec_a = GlobusEndpointSpec.create(str(tmp_path / 'ep-a'))
    spec_b = GlobusEndpointSpec.create(str(tmp_path / 'ep-b'))
    service.register_endpoint(spec_a)
    service.register_endpoint(spec_b)
    return GlobusConnector(
        endpoints={
            r'^site-a': (spec_a.endpoint_uuid, spec_a.endpoint_path),
            r'^site-b': (spec_b.endpoint_uuid, spec_b.endpoint_path),
        },
        service=service,
    )


@pytest.fixture()
def connector(tmp_path, service):
    """Single-endpoint connector matching any hostname (for the shared behaviour suite)."""
    spec = GlobusEndpointSpec.create(str(tmp_path / 'only-ep'))
    service.register_endpoint(spec)
    conn = GlobusConnector(
        endpoints={r'.*': (spec.endpoint_uuid, spec.endpoint_path)},
        service=service,
    )
    yield conn
    conn.close(clear=True)


class TestGlobusConnector(ConnectorBehavior):
    pass


def test_requires_endpoint_mapping():
    with pytest.raises(ValueError):
        GlobusConnector(endpoints={})


def test_hostname_override_roundtrip():
    token = set_current_hostname('site-a-login')
    assert current_hostname() == 'site-a-login'
    set_current_hostname(None)
    assert current_hostname() != 'site-a-login'


def test_no_matching_hostname_raises(tmp_path, service):
    spec = GlobusEndpointSpec.create(str(tmp_path / 'ep'))
    service.register_endpoint(spec)
    conn = GlobusConnector(
        endpoints={r'^no-such-host$': (spec.endpoint_uuid, spec.endpoint_path)},
        service=service,
    )
    with pytest.raises(ConnectorError, match='no Globus endpoint pattern'):
        conn.put(b'x')


def test_cross_site_transfer_via_globus(tmp_path, service):
    conn = make_two_site_connector(tmp_path, service)
    # Producer runs at "site-a".
    set_current_hostname('site-a-login')
    key = conn.put(b'inter-site payload')
    assert len(key.task_ids) == 1
    # Consumer runs at "site-b": the proxy would wait on the transfer task
    # and then read from the local (site-b) endpoint directory.
    set_current_hostname('site-b-compute-07')
    assert conn.get(key) == b'inter-site payload'


def test_put_batch_submits_single_task_per_destination(tmp_path, service):
    conn = make_two_site_connector(tmp_path, service)
    set_current_hostname('site-a-login')
    keys = conn.put_batch([b'one', b'two', b'three'])
    task_ids = {key.task_ids for key in keys}
    assert len(task_ids) == 1  # all objects share the same transfer task
    set_current_hostname('site-b-node')
    assert conn.get_batch(keys) == [b'one', b'two', b'three']


def test_failed_transfer_raises_on_get(tmp_path, service):
    conn = make_two_site_connector(tmp_path, service)
    set_current_hostname('site-a-login')
    service.fail_next_transfer()
    key = conn.put(b'doomed')
    set_current_hostname('site-b-node')
    with pytest.raises(TransferError):
        conn.get(key)


def test_exists_false_before_transfer_completes(tmp_path):
    service = GlobusTransferService(task_delay_s=0.3)
    spec_a = GlobusEndpointSpec.create(str(tmp_path / 'a'))
    spec_b = GlobusEndpointSpec.create(str(tmp_path / 'b'))
    service.register_endpoint(spec_a)
    service.register_endpoint(spec_b)
    conn = GlobusConnector(
        endpoints={
            r'^site-a': (spec_a.endpoint_uuid, spec_a.endpoint_path),
            r'^site-b': (spec_b.endpoint_uuid, spec_b.endpoint_path),
        },
        service=service,
    )
    set_current_hostname('site-a-login')
    key = conn.put(b'slow')
    set_current_hostname('site-b-node')
    assert conn.exists(key) is False  # task still in flight
    assert conn.get(key) == b'slow'   # get waits for completion
    assert conn.exists(key) is True


def test_evict_removes_from_all_endpoints(tmp_path, service):
    conn = make_two_site_connector(tmp_path, service)
    set_current_hostname('site-a-login')
    key = conn.put(b'data')
    set_current_hostname('site-b-node')
    conn.get(key)
    conn.evict(key)
    assert conn.get(key) is None
    set_current_hostname('site-a-login')
    assert conn.get(key) is None
