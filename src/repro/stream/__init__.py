"""Streaming proxy channels: pub/sub streams of lazily-resolved objects.

This package extends the one-shot proxy model to *streams*: a
:class:`StreamProducer` puts each item's bulk data through a
:class:`~repro.store.Store` (the zero-copy path) and publishes a tiny
:class:`StreamEvent` on a topic; a :class:`StreamConsumer` iterates the
topic and yields lazy proxies whose data resolves straight from the store.
Event transports are pluggable by URL scheme: :class:`LocalEventBus` for
in-process pipelines and :class:`~repro.stream.kv.KVEventBus` for
multi-process streams brokered by the SimKV server (server-side fan-out,
ring-buffer retention, consumer catch-up).

Consumer groups (:class:`~repro.stream.groups.GroupConsumer`) add
partitioned topics, committed offsets, and at-least-once crash redelivery
on top of either transport.  A plain consumer is the one-member,
one-partition case of a group, delivered by the same core, which also
fails a claim's cursor over to the next live broker (from its position)
when the broker under it dies.

See ``docs/ARCHITECTURE.md`` ("The stream path") for the data-flow
diagram and ``examples/streaming_pipeline.py`` for a runnable tour.
"""
from repro.stream.bus import EventBus
from repro.stream.bus import LocalEventBus
from repro.stream.bus import Subscription
from repro.stream.bus import broker_id
from repro.stream.bus import bus_from_config
from repro.stream.bus import event_bus_from_url
from repro.stream.bus import register_event_bus
from repro.stream.channels import StreamConsumer
from repro.stream.channels import StreamProducer
from repro.stream.events import StreamEvent
from repro.stream.groups import GroupConsumer
from repro.stream.groups import GroupCoordinator
from repro.stream.groups import PartitionRouter
from repro.stream.groups import partition_topics


def __getattr__(name: str):
    # KVEventBus is re-exported lazily: importing it eagerly would pull
    # the whole kvserver/socket machinery into every `import repro`,
    # defeating the registry's deferred loading of the KV transport
    # (kv:// URLs import it on first use).
    if name == 'KVEventBus':
        from repro.stream.kv import KVEventBus

        return KVEventBus
    raise AttributeError(f'module {__name__!r} has no attribute {name!r}')


__all__ = [
    'EventBus',
    'GroupConsumer',
    'GroupCoordinator',
    'KVEventBus',
    'LocalEventBus',
    'PartitionRouter',
    'StreamConsumer',
    'StreamEvent',
    'StreamProducer',
    'Subscription',
    'broker_id',
    'bus_from_config',
    'event_bus_from_url',
    'partition_topics',
    'register_event_bus',
]
