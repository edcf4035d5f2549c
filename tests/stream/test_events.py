"""The wire form of a :class:`StreamEvent`: exact for every key type, and
small for the plain ``ConnectorKey`` a proxied item carries."""
from __future__ import annotations

import pytest

from repro.connectors import ConnectorKey
from repro.connectors.globus import GlobusKey
from repro.connectors.multi import MultiKey
from repro.dim import DIMKey
from repro.dim import DIMReplica
from repro.endpoint import EndpointKey
from repro.stream import StreamEvent

OBJECT_ID = 'ab' * 16

KEYS = {
    'connector': ConnectorKey(OBJECT_ID, 'redis'),
    'multi': MultiKey('fast', ConnectorKey(OBJECT_ID, 'local')),
    'dim': DIMKey(
        OBJECT_ID, 'n0', 'tcp', ('127.0.0.1', 7000),
        replicas=(DIMReplica('n1', 'tcp', ('127.0.0.1', 7001)),),
    ),
    'globus': GlobusKey(OBJECT_ID, ('task-1', 'task-2')),
    'endpoint': EndpointKey(OBJECT_ID, '0' * 32),
    'bare-tuple': (OBJECT_ID, 'redis'),
    'string': OBJECT_ID,
}

# ``encode()`` bytes at commit 032bad6 of StreamEvent(payload=b'abc',
# metadata={'a': 1}, nbytes=3) and StreamEvent(end=True).
INLINE_WIRE = bytes.fromhex(
    '8005951700000000000000284e7d948c0161944b01734b034303616263948974942e',
)
END_WIRE = bytes.fromhex('8005950b00000000000000284e7d944b004e8874942e')


@pytest.mark.parametrize('name', sorted(KEYS))
def test_every_key_type_round_trips_whole(name):
    key = KEYS[name]
    event = StreamEvent(key=key, metadata={'i': 7}, nbytes=131072)
    for wire in (event.encode(), bytearray(event.encode()), memoryview(event.encode())):
        decoded = StreamEvent.decode(wire, seq=5)
        assert decoded.key == key and type(decoded.key) is type(key)
        assert (decoded.metadata, decoded.nbytes, decoded.seq) == ({'i': 7}, 131072, 5)
        assert decoded.payload is None and decoded.end is False


def test_a_plain_key_travels_without_its_class():
    wire = StreamEvent(key=KEYS['connector'], metadata={'i': 7}, nbytes=131072).encode()
    assert b'ConnectorKey' not in wire
    assert len(wire) <= 75, len(wire)
    # Richer keys keep naming theirs.
    assert b'MultiKey' in StreamEvent(key=KEYS['multi']).encode()


def test_inline_and_end_events_keep_their_bytes():
    inline = StreamEvent(payload=b'abc', metadata={'a': 1}, nbytes=3)
    assert inline.encode() == INLINE_WIRE
    assert StreamEvent(end=True).encode() == END_WIRE
    assert StreamEvent.decode(INLINE_WIRE) == StreamEvent(
        payload=b'abc', metadata={'a': 1}, nbytes=3,
    )
    assert StreamEvent.decode(END_WIRE) == StreamEvent(end=True)
