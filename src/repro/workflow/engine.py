"""A Parsl-like local workflow engine.

Parsl moves Python objects between the main process and its workers over
ZeroMQ sockets in a hub-spoke architecture: every task's inputs are
serialized by the submitting process, shipped through the hub, deserialized
by a worker, and the result makes the same journey back (Section 2 of the
paper).  This engine reproduces that data path with a thread pool: inputs and
results really are serialized, moved through an in-memory "hub", and
deserialized on the other side, so the per-byte overheads that ProxyStore
eliminates are physically present and measurable.

:meth:`WorkflowEngine.run_stream` adds a *stream-driven dispatch mode*:
the engine consumes a :class:`~repro.stream.StreamConsumer` and submits
one task per published event — when the stream carries proxies, only the
tiny proxy crosses the hub while workers resolve the bulk data directly
from the store, the streaming version of the paper's core experiment.
"""
from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from dataclasses import field
from typing import Any
from typing import Callable
from typing import Iterable
from typing import TYPE_CHECKING

from repro.exceptions import NodeUnavailableError
from repro.exceptions import WorkflowError
from repro.faults.retry import RetryPolicy
from repro.serialize import deserialize
from repro.serialize import freeze_payload
from repro.serialize import serialize

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.stream.channels import StreamProducer

__all__ = ['WorkflowEngine', 'WorkflowFuture', 'EngineStats']


@dataclass
class EngineStats:
    """Bytes and task counts that crossed the engine's hub."""

    tasks_submitted: int = 0
    tasks_completed: int = 0
    input_bytes: int = 0
    result_bytes: int = 0
    serialization_passes: int = 0
    task_retries: int = 0


class WorkflowFuture:
    """Future returned by :meth:`WorkflowEngine.submit`."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._payload: bytes | None = None
        self._error: BaseException | None = None

    def _set_result_payload(self, payload: bytes) -> None:
        self._payload = payload
        self._event.set()

    def _set_error(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        """Return whether the task has finished (with a result or an error)."""
        return self._event.is_set()

    def result(self, timeout: float | None = 60.0) -> Any:
        """Block for the task result; deserializes it on the caller's side."""
        if not self._event.wait(timeout):
            raise WorkflowError('timed out waiting for a workflow task result')
        if self._error is not None:
            raise self._error
        assert self._payload is not None
        return deserialize(self._payload)


@dataclass
class _Task:
    func: Callable[..., Any]
    payload: bytes
    future: WorkflowFuture = field(default_factory=WorkflowFuture)


class WorkflowEngine:
    """Thread-pool engine whose data path mimics Parsl's hub-spoke design.

    Args:
        n_workers: number of worker threads.
        extra_hops: number of additional encode/decode passes each payload
            makes (modelling the intermediate components a Colmena+Parsl
            deployment routes data through: JSON/base64 encoding of task
            messages, the Redis task queue, and Parsl's interchange).  The
            default of 3 approximates that pipeline; set 0 for a bare
            executor.
    """

    def __init__(self, n_workers: int = 4, *, extra_hops: int = 3) -> None:
        if n_workers < 1:
            raise ValueError('n_workers must be at least 1')
        if extra_hops < 0:
            raise ValueError('extra_hops must be non-negative')
        self.n_workers = n_workers
        self.extra_hops = extra_hops
        self.stats = EngineStats()
        self._queue: queue.Queue[_Task | None] = queue.Queue()
        self._running = threading.Event()
        self._running.set()
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f'wf-worker-{i}', daemon=True)
            for i in range(n_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- lifecycle -------------------------------------------------------- #
    def shutdown(self) -> None:
        """Stop accepting tasks and join the worker threads."""
        if not self._running.is_set():
            return
        self._running.clear()
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=2)

    def __enter__(self) -> 'WorkflowEngine':
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    # -- submission --------------------------------------------------------- #
    def submit(self, func: Callable[..., Any], *args: Any, **kwargs: Any) -> WorkflowFuture:
        """Serialize the inputs, ship them through the hub, and run the task.

        NumPy arrays among the arguments arrive at the task **read-only**
        (the zero-copy deserializer's uniform rule — they alias the queued
        payload); tasks that mutate an array input must ``np.copy`` it.
        """
        if not self._running.is_set():
            raise WorkflowError('engine has been shut down')
        # freeze_payload: the queued payload outlives this call, so its
        # segments must not alias argument buffers the caller may mutate
        # before a worker dequeues the task (snapshot semantics).
        payload = freeze_payload(serialize((args, kwargs)))
        payload = self._extra_hop_copies(payload)
        self.stats.tasks_submitted += 1
        self.stats.input_bytes += len(payload)
        task = _Task(func=func, payload=payload)
        self._queue.put(task)
        return task.future

    def _extra_hop_copies(self, payload):
        """Model the intermediate components each payload passes through.

        Each hop re-serializes the payload and base64-encodes/decodes it, as
        Colmena does when embedding task data in its JSON messages; these are
        real CPU and memory-bandwidth costs proportional to the payload size.
        """
        import base64

        from repro.serialize import to_bytes

        for _ in range(self.extra_hops):
            encoded = base64.b64encode(to_bytes(payload))
            payload = base64.b64decode(encoded)
            payload = serialize(deserialize(payload))
            self.stats.serialization_passes += 1
        return payload

    # -- stream-driven dispatch ------------------------------------------- #
    def run_stream(
        self,
        func: Callable[[Any], Any],
        items: 'Iterable[Any]',
        *,
        output: 'StreamProducer | None' = None,
        max_outstanding: int | None = None,
        close_output: bool = True,
        max_retries: int = 3,
        retry_backoff: float = 0.05,
    ) -> dict[str, int]:
        """Dispatch one task per stream item, optionally publishing results.

        Args:
            func: task body, called as ``func(item)`` on a worker.  Items
                that are proxies stay proxies across the hub — only the
                factory is serialized; the worker resolves the data from
                the store on first touch.
            items: anything iterable — canonically a
                :class:`~repro.stream.StreamConsumer`, so tasks start as
                events arrive rather than after a batch barrier.
            output: optional :class:`~repro.stream.StreamProducer` each
                task's result is published to, in input order (the output
                topic preserves the input topic's ordering).
            max_outstanding: in-flight task bound before the dispatcher
                blocks on the oldest result (default ``2 * n_workers``) —
                the engine-side backpressure that keeps an unbounded
                stream from ballooning the hub queue.
            close_output: publish end-of-stream on ``output`` once the
                input ends (set ``False`` when more runs will append).
            max_retries: resubmissions per task after a
                :class:`~repro.exceptions.NodeUnavailableError` — the
                typed crash signal raised when a task's proxy resolves
                against a dead storage node.  Retries back off via a
                :class:`~repro.faults.retry.RetryPolicy` built from
                ``retry_backoff`` (jittered exponential, capped at 1s),
                giving failover or a restart time to land.  Any other
                exception, or exhausting the budget, propagates — and a
                failed run still publishes no clean end marker.
            retry_backoff: initial retry delay in seconds.

        Returns:
            Counts: ``{'tasks': submitted, 'published': results sent,
            'retries': resubmissions}``.
        """
        if max_outstanding is None:
            max_outstanding = 2 * self.n_workers
        if max_outstanding < 1:
            raise ValueError('max_outstanding must be at least 1')
        if max_retries < 0:
            raise ValueError('max_retries must be non-negative')
        in_flight: deque[tuple[WorkflowFuture, Any, int]] = deque()
        tasks = published = retries = 0
        retry_metrics = getattr(output, 'store', None) or getattr(items, 'store', None)
        retry_metrics = getattr(retry_metrics, 'metrics', None)
        retry_policy = RetryPolicy(
            max_attempts=max_retries + 1,
            base_delay=retry_backoff,
            max_delay=1.0,
        )

        def drain_one() -> None:
            nonlocal published, retries
            future, item, attempts = in_flight.popleft()
            try:
                result = future.result()
            except NodeUnavailableError:
                if attempts >= max_retries:
                    raise
                # Jittered backoff from the shared policy: transient node
                # loss (restart, failover, rebalance) usually resolves
                # within a few beats.
                time.sleep(retry_policy.delay(attempts))
                retries += 1
                self.stats.task_retries += 1
                if retry_metrics is not None:
                    retry_metrics.record('stream.task_retries', 0.0)
                # Resubmit at the head so output order is preserved.
                in_flight.appendleft((self.submit(func, item), item, attempts + 1))
                return
            if output is not None:
                output.send(result)
                published += 1

        completed = False
        try:
            for item in items:
                in_flight.append((self.submit(func, item), item, 0))
                tasks += 1
                while len(in_flight) >= max_outstanding:
                    drain_one()
            while in_flight:
                drain_one()
            completed = True
        finally:
            # A failed run must not publish a clean end-of-stream marker:
            # downstream consumers would mistake the truncated output for a
            # complete stream (mirrors StreamProducer.__exit__).
            if output is not None and close_output:
                output.close(end=completed)
        return {'tasks': tasks, 'published': published, 'retries': retries}

    # -- workers ---------------------------------------------------------------- #
    def _worker_loop(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                return
            try:
                args, kwargs = deserialize(task.payload)
                result = task.func(*args, **kwargs)
                # Same snapshot rule: the future's payload may be read after
                # the worker (or caller) mutates arrays the result aliases.
                result_payload = freeze_payload(serialize(result))
                result_payload = self._extra_hop_copies(result_payload)
                self.stats.result_bytes += len(result_payload)
                self.stats.tasks_completed += 1
                task.future._set_result_payload(result_payload)
            except BaseException as e:  # noqa: BLE001 - delivered via the future
                task.future._set_error(e)
