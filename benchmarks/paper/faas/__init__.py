"""A federated FaaS substrate modelled on Globus Compute (funcX).

Globus Compute routes every task through its cloud service: the client
serializes the function inputs with the request, the cloud stores them and
forwards the task to the target endpoint, the endpoint executes it and sends
the result back through the cloud, and the client finally retrieves it.  The
service enforces a 5 MB task payload limit to manage storage and egress
costs (Section 2 of the paper).

This simulator preserves that architecture — client, cloud service, compute
endpoints, futures, payload serialization and the payload limit — while
executing task functions for real in-process and charging all communication
to a virtual clock over the simulated testbed fabric.  Passing ProxyStore
proxies as task inputs therefore has exactly the effect the paper describes:
the payload through the cloud shrinks to the size of the pickled proxy and
the data moves via whichever connector the proxy's store uses.
"""
from benchmarks.paper.faas.cloud import DEFAULT_PAYLOAD_LIMIT_BYTES
from benchmarks.paper.faas.cloud import CloudFaaSService
from benchmarks.paper.faas.cloud import FaaSError
from benchmarks.paper.faas.cloud import PayloadTooLargeError
from benchmarks.paper.faas.cloud import TaskExecutionError
from benchmarks.paper.faas.context import TaskContext
from benchmarks.paper.faas.context import noop_task
from benchmarks.paper.faas.endpoint import ComputeEndpoint
from benchmarks.paper.faas.executor import Executor
from benchmarks.paper.faas.executor import FaaSFuture
from benchmarks.paper.faas.executor import single_endpoint_executor

__all__ = [
    'DEFAULT_PAYLOAD_LIMIT_BYTES',
    'CloudFaaSService',
    'ComputeEndpoint',
    'Executor',
    'FaaSError',
    'FaaSFuture',
    'PayloadTooLargeError',
    'TaskContext',
    'TaskExecutionError',
    'noop_task',
    'single_endpoint_executor',
]
