"""Tests of the simulated Globus transfer service."""
from __future__ import annotations

import os

import pytest

from repro.exceptions import TransferError
from repro.connectors.globus_service import GlobusEndpointSpec
from repro.connectors.globus_service import GlobusTransferService
from repro.connectors.globus_service import TransferStatus
from repro.connectors.globus_service import get_transfer_service
from repro.connectors.globus_service import reset_transfer_service


@pytest.fixture(autouse=True)
def _clean_service():
    yield
    reset_transfer_service()


@pytest.fixture()
def service():
    return GlobusTransferService()


@pytest.fixture()
def endpoints(tmp_path, service):
    a = GlobusEndpointSpec.create(str(tmp_path / 'ep-a'))
    b = GlobusEndpointSpec.create(str(tmp_path / 'ep-b'))
    service.register_endpoint(a)
    service.register_endpoint(b)
    return a, b


def _write(spec: GlobusEndpointSpec, name: str, data: bytes) -> None:
    with open(os.path.join(spec.endpoint_path, name), 'wb') as f:
        f.write(data)


def test_endpoint_spec_create_makes_directory(tmp_path):
    spec = GlobusEndpointSpec.create(str(tmp_path / 'new-ep'))
    assert os.path.isdir(spec.endpoint_path)
    assert len(spec.endpoint_uuid) == 32


def test_register_and_list_endpoints(service, endpoints):
    a, b = endpoints
    assert set(service.endpoints()) == {a.endpoint_uuid, b.endpoint_uuid}
    assert service.endpoint(a.endpoint_uuid) == a


def test_unknown_endpoint_raises(service):
    with pytest.raises(TransferError):
        service.endpoint('nope')


def test_transfer_copies_file(service, endpoints):
    a, b = endpoints
    _write(a, 'data.bin', b'contents')
    task_id = service.submit_transfer(a.endpoint_uuid, b.endpoint_uuid, [('data.bin', 'data.bin')])
    task = service.wait(task_id)
    assert task.status is TransferStatus.SUCCEEDED
    with open(os.path.join(b.endpoint_path, 'data.bin'), 'rb') as f:
        assert f.read() == b'contents'


def test_transfer_multiple_items_single_task(service, endpoints):
    a, b = endpoints
    for i in range(3):
        _write(a, f'f{i}', f'file {i}'.encode())
    task_id = service.submit_transfer(
        a.endpoint_uuid, b.endpoint_uuid, [(f'f{i}', f'f{i}') for i in range(3)],
    )
    service.wait(task_id)
    for i in range(3):
        assert os.path.isfile(os.path.join(b.endpoint_path, f'f{i}'))


def test_transfer_missing_source_fails(service, endpoints):
    a, b = endpoints
    task_id = service.submit_transfer(a.endpoint_uuid, b.endpoint_uuid, [('missing', 'missing')])
    with pytest.raises(TransferError, match='failed'):
        service.wait(task_id)
    assert service.get_task(task_id).status is TransferStatus.FAILED


def test_injected_failure(service, endpoints):
    a, b = endpoints
    _write(a, 'ok.bin', b'x')
    service.fail_next_transfer()
    task_id = service.submit_transfer(a.endpoint_uuid, b.endpoint_uuid, [('ok.bin', 'ok.bin')])
    with pytest.raises(TransferError):
        service.wait(task_id)
    # Next transfer succeeds again.
    task_id = service.submit_transfer(a.endpoint_uuid, b.endpoint_uuid, [('ok.bin', 'ok.bin')])
    assert service.wait(task_id).status is TransferStatus.SUCCEEDED


def test_unknown_task_raises(service):
    with pytest.raises(TransferError):
        service.get_task('bogus')


def test_wait_timeout(service, endpoints):
    a, b = endpoints
    _write(a, 'f', b'x')
    release = service.hold_next_transfer()
    task_id = service.submit_transfer(a.endpoint_uuid, b.endpoint_uuid, [('f', 'f')])
    try:
        with pytest.raises(TransferError, match='timed out'):
            service.wait(task_id, timeout=0)
        assert service.get_task(task_id).status is TransferStatus.ACTIVE
        assert not os.path.exists(os.path.join(b.endpoint_path, 'f'))
    finally:
        release()
    # Succeeds once released.
    assert service.wait(task_id, timeout=5).status is TransferStatus.SUCCEEDED


def test_hold_applies_to_the_next_transfer_only(service, endpoints):
    a, b = endpoints
    _write(a, 'f', b'x')
    release = service.hold_next_transfer()
    held = service.submit_transfer(a.endpoint_uuid, b.endpoint_uuid, [('f', 'f')])
    free = service.submit_transfer(a.endpoint_uuid, b.endpoint_uuid, [('f', 'g')])
    try:
        assert service.wait(free, timeout=5).status is TransferStatus.SUCCEEDED
        assert service.get_task(held).status is TransferStatus.ACTIVE
    finally:
        release()
    assert service.wait(held, timeout=5).status is TransferStatus.SUCCEEDED


def test_global_service_singleton():
    assert get_transfer_service() is get_transfer_service()
    reset_transfer_service()
    first = get_transfer_service()
    assert get_transfer_service() is first
