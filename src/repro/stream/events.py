"""Stream event records published on a topic.

A :class:`StreamEvent` is the tiny control-plane message a
:class:`~repro.stream.StreamProducer` publishes for every item: it carries
the connector *key* of the item's bulk data (stored out-of-band through the
producer's :class:`~repro.store.Store`) plus user metadata — never the data
itself.  Consumers resolve the bulk bytes directly from the store, so the
event transport only ever moves a few hundred bytes per item no matter how
large the items are (the streaming extension of the paper's
control-flow/data-flow decoupling).

Two special forms exist:

* *inline* events embed a serialized payload in the event itself
  (``payload is not None``).  This is the naive "data rides the message
  bus" design streaming proxies replace; it is kept as a first-class mode
  so benchmarks and small-item streams can use the same API.
* *end* events (``end=True``) mark end-of-stream; a consumer iterating the
  topic stops when it sees one.

Events are pickled for the wire (both event transports treat payloads as
opaque bytes), so keys may be any picklable connector key type.  An event
is one flat tuple: ``(key, metadata, nbytes, payload, end)``, except that a
plain :class:`~repro.connectors.protocol.ConnectorKey` travels as its two
bare fields, without naming its class.  A proxied item's event (a plain
key, no payload, not the end) is the 4-tuple ``(raw_id, connector,
metadata, nbytes)``, its object id packed to raw bytes by
:func:`~repro.connectors.protocol.packed_object_id`; any other plain-key
event, or one whose id does not pack exactly, is the 6-tuple
``(object_id, connector, metadata, nbytes, payload, end)``.
:meth:`StreamEvent.decode` tells the three forms apart by length.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass
from dataclasses import field
from typing import Any

from repro.connectors.protocol import ConnectorKey
from repro.connectors.protocol import packed_object_id

__all__ = ['StreamEvent']


@dataclass
class StreamEvent:
    """One item announcement on a stream topic.

    Attributes:
        key: connector key of the item's bulk data (``None`` for inline and
            end-of-stream events).
        metadata: arbitrary picklable, user-supplied metadata.
        nbytes: serialized size of the item's bulk data in bytes.
        payload: serialized item embedded in the event itself (inline
            mode); ``None`` for proxied items.
        end: end-of-stream marker; consumers stop iterating when they see
            one.
        seq: topic sequence number, assigned by the event bus on delivery
            (``-1`` until then).
    """

    key: Any = None
    metadata: dict[str, Any] = field(default_factory=dict)
    nbytes: int = 0
    payload: bytes | None = None
    end: bool = False
    seq: int = -1

    @property
    def inline(self) -> bool:
        """Whether the item's data is embedded in the event itself."""
        return self.payload is not None

    def encode(self) -> bytes:
        """Serialize this event for publication on an event bus."""
        key = self.key
        if type(key) is not ConnectorKey:
            fields = (key, self.metadata, self.nbytes, self.payload, self.end)
        elif self.payload is None and not self.end and (
            raw := packed_object_id(key.object_id)
        ) is not None:
            fields = (raw, key.connector, self.metadata, self.nbytes)
        else:
            fields = (*key, self.metadata, self.nbytes, self.payload, self.end)
        return pickle.dumps(fields, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def decode(cls, data: 'bytes | bytearray | memoryview', seq: int = -1) -> 'StreamEvent':
        """Rebuild an event from :meth:`encode` output (``seq`` from the bus)."""
        fields = pickle.loads(data)
        if len(fields) == 4:
            raw, connector, metadata, nbytes = fields
            return cls(
                key=ConnectorKey(raw.hex(), connector),
                metadata=metadata,
                nbytes=nbytes,
                seq=seq,
            )
        if len(fields) == 6:
            object_id, connector, metadata, nbytes, payload, end = fields
            key = ConnectorKey(object_id, connector)
        else:
            key, metadata, nbytes, payload, end = fields
        return cls(
            key=key,
            metadata=metadata,
            nbytes=nbytes,
            payload=payload,
            end=end,
            seq=seq,
        )
