"""Client-side executor and futures for the FaaS substrate.

The :class:`Executor` mirrors the ``globus_compute_sdk.Executor`` API used in
Listing 2 of the paper: ``submit`` returns a future whose ``result()`` blocks
until (and accounts for) the task's round trip through the cloud service.
"""
from __future__ import annotations

from typing import Any
from typing import Callable
from typing import Iterable

from benchmarks.paper.faas.cloud import CloudFaaSService
from benchmarks.paper.faas.cloud import FaaSError
from benchmarks.paper.faas.cloud import TaskRecord
from benchmarks.paper.faas.endpoint import ComputeEndpoint
from benchmarks.paper.sim.clock import VirtualClock
from benchmarks.paper.sim.context import current_host
from benchmarks.paper.sim.network import Fabric

__all__ = ['Executor', 'FaaSFuture', 'single_endpoint_executor']


class FaaSFuture:
    """Handle to a submitted task."""

    def __init__(self, cloud: CloudFaaSService, task_id: str, client_host: str) -> None:
        self._cloud = cloud
        self.task_id = task_id
        self._client_host = client_host
        self._result: Any = None
        self._fetched = False

    def done(self) -> bool:
        """Return whether the task has completed at the endpoint."""
        return self._cloud.task(self.task_id).done

    def result(self) -> Any:
        """Return the task result, charging the result download on first call."""
        if not self._fetched:
            self._result = self._cloud.fetch_result(self._client_host, self.task_id)
            self._fetched = True
        return self._result

    def record(self) -> TaskRecord:
        """Return the cloud's bookkeeping record for this task."""
        return self._cloud.task(self.task_id)

    def __repr__(self) -> str:
        return f'FaaSFuture(task_id={self.task_id[:8]!r}, done={self.done()})'


class Executor:
    """Submits tasks to one compute endpoint through the cloud service.

    Args:
        cloud: the cloud routing service.
        endpoint_name: target endpoint.
        client_host: fabric host the client runs on; defaults to the current
            simulated host at submit time.
    """

    def __init__(
        self,
        cloud: CloudFaaSService,
        endpoint_name: str,
        *,
        client_host: str | None = None,
    ) -> None:
        if endpoint_name not in cloud.endpoints():
            raise FaaSError(f'endpoint {endpoint_name!r} is not registered with the cloud')
        self.cloud = cloud
        self.endpoint_name = endpoint_name
        self.client_host = client_host

    def _client_host(self) -> str:
        return self.client_host if self.client_host is not None else current_host()

    def submit(self, func: Callable[..., Any], *args: Any, **kwargs: Any) -> FaaSFuture:
        """Submit ``func(*args, **kwargs)`` for execution on the endpoint."""
        client_host = self._client_host()
        task_id = self.cloud.submit(client_host, self.endpoint_name, func, args, kwargs)
        return FaaSFuture(self.cloud, task_id, client_host)

    def map(self, func: Callable[..., Any], items: Iterable[Any]) -> list[FaaSFuture]:
        """Submit one task per item; returns the futures in order."""
        return [self.submit(func, item) for item in items]

    def __enter__(self) -> 'Executor':
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        return None

    def __repr__(self) -> str:
        return f'Executor(endpoint={self.endpoint_name!r})'


def single_endpoint_executor(
    endpoint_name: str,
    endpoint_host: str,
    client_host: str,
    clock: VirtualClock,
    fabric: Fabric,
) -> Executor:
    """An executor over a fresh cloud service whose one endpoint runs on ``endpoint_host``."""
    cloud = CloudFaaSService(fabric, clock)
    cloud.register_endpoint(ComputeEndpoint(endpoint_name, endpoint_host, clock, fabric))
    return Executor(cloud, endpoint_name, client_host=client_host)
