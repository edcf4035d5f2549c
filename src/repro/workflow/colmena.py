"""Colmena-like steering layer: Thinker, Task Server and result records.

Colmena applications have a Thinker (agents that create tasks and consume
results), a Task Server that forwards tasks to a workflow engine, and workers
that execute them (Section 5.2 of the paper).  ProxyStore integrates at the
library level: a store and size threshold can be registered per task *topic*
(task type); any input or result larger than the threshold is replaced by a
proxy before it is handed to the workflow machinery, relieving the task
server and engine of the data movement burden.
"""
from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from dataclasses import field
from typing import Any
from typing import Callable

from repro.exceptions import LifetimeError
from repro.exceptions import WorkflowError
from repro.proxy import Proxy
from repro.serialize import serialize
from repro.store import Lifetime
from repro.store import ProxyFuture
from repro.store import Store
from repro.workflow.engine import WorkflowEngine

__all__ = ['ColmenaQueues', 'Result', 'TaskServer', 'Thinker']


@dataclass
class Result:
    """Record of one task's journey through the Colmena pipeline."""

    topic: str
    inputs: tuple
    value: Any = None
    success: bool = True
    error: str | None = None
    # Timestamps (wall-clock seconds) for overhead attribution.
    time_created: float = field(default_factory=time.perf_counter)
    time_dispatched: float = 0.0
    time_returned: float = 0.0
    # Sizes observed by the task server (after any proxying).
    input_bytes: int = 0
    result_bytes: int = 0
    proxied_inputs: bool = False
    proxied_result: bool = False

    @property
    def roundtrip_time(self) -> float:
        """Seconds from the task's creation to its result reaching the thinker."""
        return self.time_returned - self.time_created


class ColmenaQueues:
    """The pair of queues connecting a Thinker and a Task Server."""

    def __init__(self) -> None:
        self.tasks: queue.Queue = queue.Queue()
        self.results: queue.Queue = queue.Queue()

    def send_task(
        self,
        topic: str,
        *inputs: Any,
        result_future: ProxyFuture | None = None,
    ) -> None:
        """Enqueue a task; ``result_future`` receives the task's value.

        When a :class:`~repro.store.ProxyFuture` is supplied, the task
        server writes the task's result into it as soon as the task
        completes, so downstream consumers holding ``result_future.proxy()``
        pipeline with the Thinker instead of waiting at the results queue.
        """
        self.tasks.put((topic, inputs, result_future))

    def get_result(self, timeout: float | None = 60.0) -> Result:
        """Block for the next result; raises ``WorkflowError`` after ``timeout``."""
        try:
            return self.results.get(timeout=timeout)
        except queue.Empty:
            raise WorkflowError('timed out waiting for a Colmena result') from None


@dataclass
class _TopicConfig:
    func: Callable[..., Any]
    store: Store | None = None
    threshold_bytes: int | None = None
    proxy_results: bool = True
    lifetime: Lifetime | None = None


class TaskServer:
    """Receives task requests, optionally proxies large data, and runs tasks.

    Args:
        queues: the Thinker-facing queues.
        engine: the workflow engine executing tasks.
        fixed_overhead_s: per-task scheduling/bookkeeping time in the task
            server (queue handling, result records, policy checks); Colmena
            deployments measure this in the tens of milliseconds.
        lifetime: a per-run :class:`~repro.store.Lifetime` every proxied
            input, result, and result future created by this server is bound
            to.  Closing it after the run batch-evicts every key the run
            produced, so sustained workloads stop leaking backing storage.
            Topics may override it via :meth:`register_topic`.
    """

    def __init__(
        self,
        queues: ColmenaQueues,
        engine: WorkflowEngine,
        *,
        fixed_overhead_s: float = 0.02,
        lifetime: Lifetime | None = None,
    ) -> None:
        if fixed_overhead_s < 0:
            raise ValueError('fixed_overhead_s must be non-negative')
        self.queues = queues
        self.engine = engine
        self.fixed_overhead_s = fixed_overhead_s
        self.lifetime = lifetime
        self._topics: dict[str, _TopicConfig] = {}
        self._thread: threading.Thread | None = None
        self._running = threading.Event()
        self.tasks_processed = 0

    # -- configuration ------------------------------------------------------- #
    def register_topic(
        self,
        topic: str,
        func: Callable[..., Any],
        *,
        store: Store | str | None = None,
        threshold_bytes: int | None = None,
        proxy_results: bool = True,
        lifetime: Lifetime | None = None,
    ) -> None:
        """Register the function for ``topic`` and (optionally) its proxy policy.

        When ``store`` is provided, any input or result whose serialized size
        is at least ``threshold_bytes`` is replaced with a proxy from that
        store before being passed onward — the library-level integration the
        paper describes.  A store URL string (``'redis://host:6379/ns'``)
        is accepted in place of a Store instance and resolved through
        ``Store.from_url``.  ``lifetime`` overrides the server's per-run
        lifetime for this topic's proxied data.
        """
        if threshold_bytes is not None and threshold_bytes < 0:
            raise ValueError('threshold_bytes must be non-negative')
        if isinstance(store, str):
            store = Store.from_url(store)
        self._topics[topic] = _TopicConfig(
            func=func,
            store=store,
            threshold_bytes=threshold_bytes,
            proxy_results=proxy_results,
            lifetime=lifetime,
        )

    def _lifetime_for(self, config: _TopicConfig) -> Lifetime | None:
        lifetime = config.lifetime if config.lifetime is not None else self.lifetime
        if lifetime is not None and lifetime.done():
            return None  # a closed run lifetime must not reject late tasks
        return lifetime

    def result_future(self, topic: str, **future_kwargs: Any) -> ProxyFuture:
        """Create a :class:`~repro.store.ProxyFuture` in ``topic``'s store.

        Pass the returned future to :meth:`ColmenaQueues.send_task` (or
        ``Thinker.submit``) and hand ``future.proxy()`` to downstream
        consumers: they start immediately and block only when they first
        touch the not-yet-computed result — producer/consumer pipelining
        without a barrier at the results queue.
        """
        config = self._topics.get(topic)
        if config is None:
            raise WorkflowError(f'no function registered for topic {topic!r}')
        if config.store is None:
            raise WorkflowError(
                f'topic {topic!r} has no store; result futures need a '
                'mediated channel to flow through',
            )
        injected = False
        lifetime = self._lifetime_for(config)
        if (
            lifetime is not None
            and not future_kwargs.get('evict')
            and 'lifetime' not in future_kwargs
        ):
            future_kwargs['lifetime'] = lifetime
            injected = True
        try:
            return config.store.future(**future_kwargs)
        except LifetimeError:
            if not injected:
                raise  # a caller-supplied closed lifetime is the caller's bug
            # The run lifetime closed between the done() check and the
            # bind; allocate the future unbound rather than failing it.
            future_kwargs.pop('lifetime', None)
            return config.store.future(**future_kwargs)

    def topics(self) -> list[str]:
        """Return the registered topic names, sorted."""
        return sorted(self._topics)

    # -- lifecycle --------------------------------------------------------------- #
    def start(self) -> None:
        """Start the serving thread (no-op when already running)."""
        if self._running.is_set():
            return
        self._running.set()
        self._thread = threading.Thread(
            target=self._serve_loop, name='colmena-task-server', daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the serving thread and join it (no-op when not running)."""
        if not self._running.is_set():
            return
        self._running.clear()
        self.queues.tasks.put(None)
        if self._thread is not None:
            self._thread.join(timeout=2)

    def __enter__(self) -> 'TaskServer':
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    # -- serving ------------------------------------------------------------------ #
    def _maybe_proxy(self, config: _TopicConfig, value: Any) -> tuple[Any, int, bool]:
        """Replace ``value`` with a proxy if the topic's policy says to.

        Returns ``(possibly proxied value, serialized size seen downstream,
        whether it was proxied)``.
        """
        if isinstance(value, Proxy):
            return value, len(serialize(value)), True
        size = len(serialize(value))
        if (
            config.store is not None
            and config.threshold_bytes is not None
            and size >= config.threshold_bytes
        ):
            try:
                proxy = config.store.proxy(
                    value,
                    cache_local=False,
                    lifetime=self._lifetime_for(config),
                )
            except LifetimeError:
                # Lost the race with the run lifetime closing (the store
                # evicted the bound-too-late key): re-store the straggler's
                # data unbound so the task still completes.
                proxy = config.store.proxy(value, cache_local=False)
            return proxy, len(serialize(proxy)), True
        return value, size, False

    def _serve_loop(self) -> None:
        while self._running.is_set():
            try:
                item = self.queues.tasks.get(timeout=0.1)
            except queue.Empty:
                continue
            if item is None:
                break
            topic, inputs, result_future = item
            self._handle(topic, inputs, result_future)

    def _handle(
        self,
        topic: str,
        inputs: tuple,
        result_future: ProxyFuture | None = None,
    ) -> None:
        record = Result(topic=topic, inputs=inputs)
        if self.fixed_overhead_s > 0:
            time.sleep(self.fixed_overhead_s)
        config = self._topics.get(topic)
        if config is None:
            record.success = False
            record.error = f'no function registered for topic {topic!r}'
            record.time_returned = time.perf_counter()
            if result_future is not None:
                result_future.set_exception(WorkflowError(record.error))
            self.queues.results.put(record)
            return
        processed_inputs = []
        total_input_bytes = 0
        any_proxied = False
        try:
            for value in inputs:
                value, size, proxied = self._maybe_proxy(config, value)
                processed_inputs.append(value)
                total_input_bytes += size
                any_proxied = any_proxied or proxied
        except Exception as e:  # noqa: BLE001 - must not kill the serve loop
            record.success = False
            record.error = f'input proxying failed: {type(e).__name__}: {e}'
            record.time_returned = time.perf_counter()
            if result_future is not None and not result_future.done():
                try:
                    result_future.set_exception(e)
                except Exception:  # noqa: BLE001 - channel itself is broken
                    pass
            self.queues.results.put(record)
            return
        record.input_bytes = total_input_bytes
        record.proxied_inputs = any_proxied
        record.time_dispatched = time.perf_counter()
        future = self.engine.submit(config.func, *processed_inputs)
        try:
            value = future.result()
            if result_future is not None:
                # Stream the value into the future *before* queue
                # bookkeeping: consumers holding the future's proxy wake up
                # as early as possible.  The write through the future IS the
                # proxying — the record reuses the future's proxy instead of
                # storing a second copy of the result.
                result_future.set_result(value)
                streamed = result_future.proxy()
                record.value = streamed
                record.result_bytes = len(serialize(streamed))
                record.proxied_result = True
            else:
                value, result_size, result_proxied = (
                    self._maybe_proxy(config, value)
                    if config.proxy_results
                    else (value, len(serialize(value)), False)
                )
                record.value = value
                record.result_bytes = result_size
                record.proxied_result = result_proxied
        except Exception as e:  # noqa: BLE001 - reported in the result record
            record.success = False
            record.error = f'{type(e).__name__}: {e}'
            if result_future is not None and not result_future.done():
                try:
                    result_future.set_exception(e)
                except Exception:  # noqa: BLE001 - channel itself is broken
                    pass
        record.time_returned = time.perf_counter()
        self.tasks_processed += 1
        self.queues.results.put(record)


class Thinker:
    """Minimal Thinker: submits tasks and collects results synchronously."""

    def __init__(self, queues: ColmenaQueues) -> None:
        self.queues = queues
        self.results: list[Result] = []

    def submit(
        self,
        topic: str,
        *inputs: Any,
        result_future: ProxyFuture | None = None,
    ) -> None:
        """Queue one task on ``topic`` without waiting for its result."""
        self.queues.send_task(topic, *inputs, result_future=result_future)

    def wait_for_result(self, timeout: float | None = 60.0) -> Result:
        """Block for the next result and record it in ``results``."""
        result = self.queues.get_result(timeout=timeout)
        self.results.append(result)
        return result

    def run_task(self, topic: str, *inputs: Any, timeout: float | None = 60.0) -> Result:
        """Submit one task and block for its result (round-trip helper)."""
        self.submit(topic, *inputs)
        return self.wait_for_result(timeout=timeout)
