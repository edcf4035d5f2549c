"""Spans and counters recorded from outside the program, at layer boundaries.

Every span is taken by code in this directory, around a call into one of
``repro``'s public functions: serializer/deserializer overrides handed to
``Store.from_url``, a ``wrap_connector`` wrapper, a delegating event-bus and
subscription, and the driver's own calls.  Layers are named after the repo's
modules (``serialize``, ``store``, ``proxy``, ``connectors``, ``stream``).
Counters are kept by the same wrappers, so a count is taken where the work
happens and is the same whether spans are being recorded or not.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns
from typing import Any

from repro.serialize import deserialize
from repro.serialize import payload_nbytes
from repro.serialize import serialize
from repro.stream import StreamEvent


class NullTracer:
    """Tracing off: the calls cost one no-op method each."""

    recording = False

    def start_cycle(self, cycle_id: int) -> None:
        pass

    def begin(self, name: str) -> int:
        return 0

    def end(self, index: int) -> None:
        pass


class Tracer:
    """In-memory span recorder for one driver thread.

    A span is ``[name, start_ns, end_ns, parent_index, cycle_id]``; the
    parent is whatever span was open when it began.  Spans of one traced
    block live in ``spans`` until :meth:`fold` reduces them to per-name
    totals; ``kept`` retains the raw spans for the JSON dump.
    """

    recording = True

    def __init__(self, keep_raw: bool = False) -> None:
        self.spans: list[list] = []
        self.kept: list[list] = []
        self.keep_raw = keep_raw
        self._stack: list[int] = []
        self._cycle = 0
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.top_level_ns = 0

    def start_cycle(self, cycle_id: int) -> None:
        self._cycle = cycle_id
        # A cycle that raised may have left spans open.
        del self._stack[:]

    def begin(self, name: str) -> int:
        stack = self._stack
        spans = self.spans
        index = len(spans)
        span = [name, 0, 0, stack[-1] if stack else -1, self._cycle]
        spans.append(span)
        stack.append(index)
        span[1] = perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        now = perf_counter_ns()
        self.spans[index][2] = now
        self._stack.pop()

    def fold(self) -> None:
        """Reduce the current block's spans to totals and self times."""
        spans = self.spans
        children = [0] * len(spans)
        for name, start, end, parent, _cycle in spans:
            if end and parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, parent, _cycle) in enumerate(spans):
            if not end:
                continue  # left open by a cycle that raised
            duration = end - start
            self.total_ns[name] += duration
            self.self_ns[name] += duration - children[index]
            if parent < 0:
                self.top_level_ns += duration
        if self.keep_raw:
            base = len(self.kept)
            for name, start, end, parent, cycle in spans:
                self.kept.append(
                    [name, start, end, parent + base if parent >= 0 else -1, cycle],
                )
        self.spans = []


class Counts:
    """Exact work counts taken at the connector and bus boundaries."""

    def __init__(self) -> None:
        self.connector_calls: dict[str, int] = defaultdict(int)
        self.bytes_out = 0
        self.bytes_in = 0
        self.serialized_bytes = 0
        self.publish_calls = 0
        self.published_events = 0
        self.published_bytes = 0
        self.delivered_events = 0
        self.delivered_bytes = 0
        self.proxied_event_bytes: set[int] = set()

    @property
    def round_trips(self) -> int:
        return sum(self.connector_calls.values()) + self.publish_calls

    @property
    def wire_bytes(self) -> int:
        return (
            self.bytes_out + self.bytes_in
            + self.published_bytes + self.delivered_bytes
        )


def timing_serializers(tracer: Any, counts: Counts) -> tuple[Any, Any]:
    """``serializer=``/``deserializer=`` overrides that time the default ones."""

    def timed_serialize(obj: Any) -> Any:
        span = tracer.begin('serialize.ser')
        data = serialize(obj)
        tracer.end(span)
        counts.serialized_bytes += payload_nbytes(data)
        return data

    def timed_deserialize(data: Any) -> Any:
        span = tracer.begin('serialize.deser')
        obj = deserialize(data)
        tracer.end(span)
        return obj

    return timed_serialize, timed_deserialize


class TracedConnector:
    """``wrap_connector`` wrapper: one span and one count per data-path call.

    Everything else (``config``, ``close``, ``supports_buffers``, ...) is the
    inner connector's own.
    """

    def __init__(self, inner: Any, tracer: Any, counts: Counts) -> None:
        self.inner = inner
        self._tracer = tracer
        self._counts = counts

    def __repr__(self) -> str:
        return f'TracedConnector({self.inner!r})'

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def _call(self, op: str, *args: Any) -> Any:
        self._counts.connector_calls[op] += 1
        span = self._tracer.begin('connectors.' + op)
        try:
            return getattr(self.inner, op)(*args)
        finally:
            self._tracer.end(span)

    def put(self, data: Any) -> Any:
        self._counts.bytes_out += payload_nbytes(data)
        return self._call('put', data)

    def put_batch(self, datas: Any) -> Any:
        self._counts.bytes_out += sum(payload_nbytes(d) for d in datas)
        return self._call('put_batch', datas)

    def get(self, key: Any) -> Any:
        data = self._call('get', key)
        if data is not None:
            self._counts.bytes_in += payload_nbytes(data)
        return data

    def get_batch(self, keys: Any) -> Any:
        datas = self._call('get_batch', keys)
        self._counts.bytes_in += sum(
            payload_nbytes(d) for d in datas if d is not None
        )
        return datas

    def exists(self, key: Any) -> bool:
        return self._call('exists', key)

    def evict(self, key: Any) -> None:
        self._call('evict', key)

    def evict_batch(self, keys: Any) -> None:
        self._call('evict_batch', keys)


class TracedSubscription:
    """Delegating subscription: a span and byte counts per pulled batch."""

    def __init__(self, inner: Any, tracer: Any, counts: Counts) -> None:
        self._inner = inner
        self._tracer = tracer
        self._counts = counts

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def next_batch(self, timeout: float | None = None) -> Any:
        span = self._tracer.begin('stream.fetch')
        try:
            batch = self._inner.next_batch(timeout=timeout)
        finally:
            self._tracer.end(span)
        self._counts.delivered_events += len(batch)
        self._counts.delivered_bytes += sum(len(data) for _, data in batch)
        return batch


class TracedBus:
    """Delegating event bus: spans and counts for publishes and subscriptions.

    ``client`` (like everything not intercepted) is the inner bus's own: the
    group coordinator reaches the broker's membership and offset commands
    through it, some of them from the consumer's heartbeat thread, whose
    timing-driven calls are not part of the per-item counts.
    """

    def __init__(self, inner: Any, tracer: Any, counts: Counts) -> None:
        self._inner = inner
        self._tracer = tracer
        self._counts = counts

    def __repr__(self) -> str:
        return f'TracedBus({self._inner!r})'

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def publish(self, topic: str, payload: Any) -> int:
        return self.publish_batch(topic, [payload])[0]

    def publish_batch(self, topic: str, payloads: Any) -> list[int]:
        counts = self._counts
        counts.publish_calls += 1
        counts.published_events += len(payloads)
        for payload in payloads:
            counts.published_bytes += len(payload)
            if not StreamEvent.decode(payload).inline:
                counts.proxied_event_bytes.add(len(payload))
        span = self._tracer.begin('stream.publish')
        try:
            return self._inner.publish_batch(topic, payloads)
        finally:
            self._tracer.end(span)

    def subscribe(self, topic: str, *, from_seq: int | None = None) -> Any:
        return TracedSubscription(
            self._inner.subscribe(topic, from_seq=from_seq),
            self._tracer,
            self._counts,
        )
