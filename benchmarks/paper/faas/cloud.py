"""The cloud service at the centre of the federated FaaS substrate.

Every task and every result passes through this service: task inputs are
uploaded from the client, stored, and downloaded by the target endpoint;
results travel the reverse path.  Payloads above the service's limit are
rejected — the behaviour that motivates proxying large inputs in the paper.
All communication is charged to the virtual clock using the fabric.
"""
from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass
from dataclasses import field
from typing import Any
from typing import Callable

from benchmarks.paper.sim.clock import VirtualClock
from benchmarks.paper.sim.fabric import CLOUD_REQUEST_OVERHEAD_S
from benchmarks.paper.sim.fabric import CLOUD_SERVICE_HOST
from benchmarks.paper.sim.network import Fabric
from repro.exceptions import ReproError
from repro.serialize import deserialize
from repro.serialize import serialize

__all__ = [
    'CloudFaaSService',
    'TaskRecord',
    'DEFAULT_PAYLOAD_LIMIT_BYTES',
    'FaaSError',
    'PayloadTooLargeError',
    'TaskExecutionError',
]

#: Globus Compute's task payload limit (Section 2 of the paper).
DEFAULT_PAYLOAD_LIMIT_BYTES = 5 * 1024 * 1024


class FaaSError(ReproError):
    """Base class for the simulated FaaS substrate."""


class PayloadTooLargeError(FaaSError):
    """Raised when a task payload exceeds the cloud service payload limit."""


class TaskExecutionError(FaaSError):
    """Raised when a task submitted to the FaaS substrate raises an exception."""


@dataclass
class TaskRecord:
    """Bookkeeping for one task routed through the cloud."""

    task_id: str
    endpoint_name: str
    client_host: str
    input_bytes: int = 0
    result_bytes: int = 0
    submitted_at: float = 0.0
    completed_at: float = 0.0
    result: Any = None
    error: str | None = None
    done: bool = False
    timeline: dict[str, float] = field(default_factory=dict)

    @property
    def roundtrip_time(self) -> float:
        return self.completed_at - self.submitted_at


class CloudFaaSService:
    """Cloud-hosted task routing service (a Globus Compute stand-in).

    Args:
        fabric: simulated network fabric.
        clock: virtual clock all communication/compute time is charged to.
        payload_limit_bytes: maximum serialized size of task inputs or results.
        request_overhead_s: service-side processing time per API request.
        payload_processing_bps: rate at which the service ingests/serves
            payload bytes (stores them in its Redis/S3 backend, applies
            quotas, etc.); this is what makes large payloads expensive to
            route through the cloud even on fast networks.
        cloud_host: name of the host running the cloud service in the fabric.
    """

    def __init__(
        self,
        fabric: Fabric,
        clock: VirtualClock,
        *,
        payload_limit_bytes: int = DEFAULT_PAYLOAD_LIMIT_BYTES,
        request_overhead_s: float = CLOUD_REQUEST_OVERHEAD_S,
        payload_processing_bps: float = 2e6,
        cloud_host: str = CLOUD_SERVICE_HOST,
    ) -> None:
        self.fabric = fabric
        self.clock = clock
        self.payload_limit_bytes = payload_limit_bytes
        self.request_overhead_s = request_overhead_s
        self.payload_processing_bps = payload_processing_bps
        self.cloud_host = cloud_host
        self._endpoints: dict[str, Any] = {}
        self._tasks: dict[str, TaskRecord] = {}
        self._lock = threading.Lock()

    # -- endpoint registration ----------------------------------------------- #
    def register_endpoint(self, endpoint: Any) -> None:
        """Register a :class:`~benchmarks.paper.faas.endpoint.ComputeEndpoint` by name."""
        with self._lock:
            self._endpoints[endpoint.name] = endpoint

    def endpoints(self) -> list[str]:
        with self._lock:
            return sorted(self._endpoints)

    def _endpoint(self, name: str) -> Any:
        with self._lock:
            try:
                return self._endpoints[name]
            except KeyError:
                raise FaaSError(f'unknown compute endpoint {name!r}') from None

    # -- task lifecycle --------------------------------------------------------- #
    def submit(
        self,
        client_host: str,
        endpoint_name: str,
        func: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> str:
        """Submit a task; returns its task id after (synchronously) executing it.

        The synchronous execution keeps virtual-time accounting deterministic;
        the client-visible API (submit then ``result()``) is unchanged.
        """
        endpoint = self._endpoint(endpoint_name)
        payload = serialize((args, kwargs))
        if len(payload) > self.payload_limit_bytes:
            raise PayloadTooLargeError(
                f'task payload of {len(payload)} bytes exceeds the service '
                f'limit of {self.payload_limit_bytes} bytes; consider passing '
                'proxies instead of raw data',
            )
        record = TaskRecord(
            task_id=uuid.uuid4().hex,
            endpoint_name=endpoint_name,
            client_host=client_host,
            input_bytes=len(payload),
            submitted_at=self.clock.now(),
        )
        with self._lock:
            self._tasks[record.task_id] = record

        # Client -> cloud upload of the task request + payload (the service
        # also has to ingest the payload into its storage backend).
        upload = (
            self.fabric.transfer_time(client_host, self.cloud_host, len(payload))
            + len(payload) / self.payload_processing_bps
        )
        self.clock.advance(upload + self.request_overhead_s)
        record.timeline['upload'] = upload + self.request_overhead_s

        # Cloud -> endpoint dispatch (the endpoint fetches the task + payload).
        dispatch = (
            self.fabric.transfer_time(self.cloud_host, endpoint.host, len(payload))
            + len(payload) / self.payload_processing_bps
        )
        self.clock.advance(dispatch + self.request_overhead_s)
        record.timeline['dispatch'] = dispatch + self.request_overhead_s

        # Execute at the endpoint.  Inputs are deserialized there, mirroring
        # where the real framework deserializes them.
        exec_start = self.clock.now()
        args2, kwargs2 = deserialize(payload)
        try:
            result = endpoint.execute(func, args2, kwargs2)
            record.result = result
            result_payload = serialize(result)
        except PayloadTooLargeError:
            raise
        except Exception as e:  # noqa: BLE001 - surfaced via the future
            record.error = f'{type(e).__name__}: {e}'
            result_payload = serialize(record.error)
        record.timeline['execute'] = self.clock.now() - exec_start

        if len(result_payload) > self.payload_limit_bytes:
            raise PayloadTooLargeError(
                f'task result of {len(result_payload)} bytes exceeds the '
                f'service limit of {self.payload_limit_bytes} bytes',
            )
        record.result_bytes = len(result_payload)

        # Endpoint -> cloud upload of the result.
        upload_result = self.fabric.transfer_time(
            endpoint.host, self.cloud_host, len(result_payload),
        ) + len(result_payload) / self.payload_processing_bps
        self.clock.advance(upload_result + self.request_overhead_s)
        record.timeline['result_upload'] = upload_result + self.request_overhead_s
        record.done = True
        return record.task_id

    def fetch_result(self, client_host: str, task_id: str) -> Any:
        """Download a completed task's result to the client (charging the clock)."""
        record = self.task(task_id)
        if not record.done:
            raise FaaSError(f'task {task_id} has not completed')
        download = self.fabric.transfer_time(self.cloud_host, client_host, record.result_bytes)
        self.clock.advance(download + self.request_overhead_s)
        record.timeline['result_download'] = download + self.request_overhead_s
        record.completed_at = self.clock.now()
        if record.error is not None:
            raise TaskExecutionError(record.error)
        return record.result

    def task(self, task_id: str) -> TaskRecord:
        with self._lock:
            try:
                return self._tasks[task_id]
            except KeyError:
                raise FaaSError(f'unknown task {task_id!r}') from None

    def task_records(self) -> list[TaskRecord]:
        with self._lock:
            return list(self._tasks.values())
