"""The transfer service behind ``globus://``: a stand-in for Globus Transfer.

Globus Transfer is a cloud-hosted software-as-a-service for reliable bulk
file movement between registered endpoints.  It is not reachable offline, so
this module provides a functional stand-in: endpoints are directories on the
local file system, transfers are asynchronous tasks executed by a background
worker (with one-shot hold and failure injection), and clients poll task
status by task id — the same interaction pattern
:class:`~repro.connectors.globus.GlobusConnector` uses (submit, poll, read
file from the destination endpoint's directory).
"""
from __future__ import annotations

import enum
import os
import shutil
import threading
import time
import uuid
from dataclasses import dataclass
from dataclasses import field
from typing import Callable
from typing import Sequence

from repro.exceptions import TransferError

__all__ = [
    'GlobusEndpointSpec',
    'GlobusTransferService',
    'TransferStatus',
    'TransferTask',
    'get_transfer_service',
    'reset_transfer_service',
]

#: Seconds :meth:`GlobusTransferService.wait` sleeps between task polls.
_POLL_INTERVAL_S = 0.005


class TransferStatus(enum.Enum):
    """Lifecycle of a transfer task (mirrors the Globus task states we use)."""

    ACTIVE = 'ACTIVE'
    SUCCEEDED = 'SUCCEEDED'
    FAILED = 'FAILED'


@dataclass(frozen=True)
class GlobusEndpointSpec:
    """A registered endpoint: a UUID plus the directory it serves."""

    endpoint_uuid: str
    endpoint_path: str

    @classmethod
    def create(cls, endpoint_path: str) -> 'GlobusEndpointSpec':
        """Create a spec with a fresh UUID, creating the directory."""
        os.makedirs(endpoint_path, exist_ok=True)
        return cls(endpoint_uuid=uuid.uuid4().hex, endpoint_path=os.path.abspath(endpoint_path))


@dataclass
class TransferTask:
    """A transfer of one or more files between two endpoints."""

    task_id: str
    src_endpoint: str
    dst_endpoint: str
    items: list[tuple[str, str]]
    status: TransferStatus = TransferStatus.ACTIVE
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    completed_at: float | None = None

    @property
    def done(self) -> bool:
        return self.status is not TransferStatus.ACTIVE


class GlobusTransferService:
    """Executes transfer tasks between registered endpoint directories.

    Tasks complete as fast as the copy does; the benchmarks account for the
    real SaaS overhead on the virtual clock instead.
    :meth:`hold_next_transfer` keeps the next submitted task in flight until
    released, and :meth:`fail_next_transfer` makes it fail.
    """

    def __init__(self) -> None:
        self._endpoints: dict[str, GlobusEndpointSpec] = {}
        self._tasks: dict[str, TransferTask] = {}
        self._lock = threading.Lock()
        self._fail_next = False
        self._hold_next: threading.Event | None = None
        #: Live transfer worker threads, joined by :meth:`close` so the
        #: service never leaks workers past its owner's teardown.
        self._workers: list[threading.Thread] = []

    # -- endpoint management ----------------------------------------------- #
    def register_endpoint(self, spec: GlobusEndpointSpec) -> str:
        """Register an endpoint; returns its UUID."""
        os.makedirs(spec.endpoint_path, exist_ok=True)
        with self._lock:
            self._endpoints[spec.endpoint_uuid] = spec
        return spec.endpoint_uuid

    def endpoint(self, endpoint_uuid: str) -> GlobusEndpointSpec:
        with self._lock:
            try:
                return self._endpoints[endpoint_uuid]
            except KeyError:
                raise TransferError(f'unknown endpoint {endpoint_uuid!r}') from None

    def endpoints(self) -> list[str]:
        with self._lock:
            return sorted(self._endpoints)

    # -- failure injection --------------------------------------------------- #
    def fail_next_transfer(self) -> None:
        """Force the next submitted transfer task to fail (for tests)."""
        self._fail_next = True

    def hold_next_transfer(self) -> Callable[[], None]:
        """Keep the next submitted transfer task ``ACTIVE`` until released.

        Returns the release callable: the task's worker waits on it before
        it copies (or fails), so a test can observe the in-flight state
        without sleeping.
        """
        hold = threading.Event()
        self._hold_next = hold
        return hold.set

    # -- transfers ------------------------------------------------------------ #
    def submit_transfer(
        self,
        src_endpoint: str,
        dst_endpoint: str,
        items: Sequence[tuple[str, str]],
    ) -> str:
        """Submit an asynchronous transfer of ``items`` (src relative path, dst relative path).

        Returns the task id immediately; completion is observed by polling
        :meth:`get_task` or blocking in :meth:`wait`.
        """
        src = self.endpoint(src_endpoint)
        dst = self.endpoint(dst_endpoint)
        task = TransferTask(
            task_id=uuid.uuid4().hex,
            src_endpoint=src_endpoint,
            dst_endpoint=dst_endpoint,
            items=list(items),
        )
        with self._lock:
            self._tasks[task.task_id] = task
        fail, self._fail_next = self._fail_next, False
        hold, self._hold_next = self._hold_next, None
        worker = threading.Thread(
            target=self._execute, args=(task, src, dst, fail, hold), daemon=True,
        )
        with self._lock:
            # Opportunistically prune finished workers so a long-lived
            # service doesn't accumulate dead Thread objects.
            self._workers = [w for w in self._workers if w.is_alive()]
            self._workers.append(worker)
        worker.start()
        return task.task_id

    def _execute(
        self,
        task: TransferTask,
        src: GlobusEndpointSpec,
        dst: GlobusEndpointSpec,
        fail: bool,
        hold: threading.Event | None,
    ) -> None:
        if hold is not None:
            hold.wait()
        if fail:
            task.status = TransferStatus.FAILED
            task.error = 'injected transfer failure'
            task.completed_at = time.time()
            return
        try:
            for src_rel, dst_rel in task.items:
                src_path = os.path.join(src.endpoint_path, src_rel)
                dst_path = os.path.join(dst.endpoint_path, dst_rel)
                os.makedirs(os.path.dirname(dst_path) or '.', exist_ok=True)
                shutil.copyfile(src_path, dst_path)
            task.status = TransferStatus.SUCCEEDED
        except OSError as e:
            task.status = TransferStatus.FAILED
            task.error = str(e)
        task.completed_at = time.time()

    def close(self, *, timeout: float = 5.0) -> None:
        """Join outstanding transfer workers (bounded per thread).

        Idempotent; after it returns, no worker started by this service
        is still mutating task state.
        """
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.join(timeout=timeout)

    def get_task(self, task_id: str) -> TransferTask:
        with self._lock:
            try:
                return self._tasks[task_id]
            except KeyError:
                raise TransferError(f'unknown transfer task {task_id!r}') from None

    def wait(self, task_id: str, *, timeout: float = 30.0) -> TransferTask:
        """Block until the task completes; raises :class:`TransferError` on failure/timeout."""
        deadline = time.time() + timeout
        while True:
            task = self.get_task(task_id)
            if task.done:
                if task.status is TransferStatus.FAILED:
                    raise TransferError(
                        f'Globus transfer task {task_id} failed: {task.error}',
                    )
                return task
            if time.time() > deadline:
                raise TransferError(f'Globus transfer task {task_id} timed out')
            time.sleep(_POLL_INTERVAL_S)


# Process-global service instance used by default so that producer and
# consumer connectors in one process (the common test/benchmark situation)
# share endpoints and tasks, as they would share the real Globus cloud.
_SERVICE: GlobusTransferService | None = None
_SERVICE_LOCK = threading.Lock()


def get_transfer_service() -> GlobusTransferService:
    """Return the process-global transfer service, creating it if needed."""
    global _SERVICE
    with _SERVICE_LOCK:
        if _SERVICE is None:
            _SERVICE = GlobusTransferService()
        return _SERVICE


def reset_transfer_service() -> None:
    """Discard the process-global service (test isolation).

    Joins the outgoing service's transfer workers first, so a test that
    resets the service cannot leak workers into the next test.
    """
    global _SERVICE
    with _SERVICE_LOCK:
        service, _SERVICE = _SERVICE, None
    if service is not None:
        service.close()
