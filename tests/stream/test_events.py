"""The wire form of a :class:`StreamEvent`: exact for every key type and
object id, and small for the plain ``ConnectorKey`` a proxied item carries."""
from __future__ import annotations

import pytest

from repro.connectors import ConnectorKey
from repro.connectors.protocol import new_object_id
from repro.connectors.globus import GlobusKey
from repro.connectors.multi import MultiKey
from repro.dim import DIMKey
from repro.dim import DIMReplica
from repro.endpoint import EndpointKey
from repro.stream import StreamEvent

#: Bytes a proxied item's encoded event may cost (``bench_proxy_ops.py``
#: gates CI on the same constant).
EVENT_WIRE_BUDGET = 64

OBJECT_ID = 'ab' * 16
_MINTED = new_object_id()
OBJECT_IDS = {
    'minted': _MINTED,
    'upper-case': _MINTED.upper(),
    '31-chars': _MINTED[:31],
    '33-chars': _MINTED + 'a',
    'non-hex': 'z' * 32,
    'bytes': bytes.fromhex(_MINTED),
    'int': 1 << 24,
}


def _keys(object_id):
    """Every key type a built-in connector hands out, around ``object_id``."""
    return {
        'connector': ConnectorKey(object_id, 'redis'),
        'multi': MultiKey('fast', ConnectorKey(object_id, 'local')),
        'dim': DIMKey(
            object_id, 'n0', 'tcp', ('127.0.0.1', 7000),
            replicas=(DIMReplica('n1', 'tcp', ('127.0.0.1', 7001)),),
        ),
        'globus': GlobusKey(object_id, ('task-1', 'task-2')),
        'endpoint': EndpointKey(object_id, '0' * 32),
        'bare-tuple': (object_id, 'redis'),
        'string': object_id,
    }


KEYS = _keys(OBJECT_ID)

# ``encode()`` bytes at commit 032bad6 of StreamEvent(payload=b'abc',
# metadata={'a': 1}, nbytes=3) and StreamEvent(end=True).
INLINE_WIRE = bytes.fromhex(
    '8005951700000000000000284e7d948c0161944b01734b034303616263948974942e',
)
END_WIRE = bytes.fromhex('8005950b00000000000000284e7d944b004e8874942e')
# ``encode()`` bytes at commit c42079a, before object ids were packed, of
# StreamEvent(key=ConnectorKey('3f5a' * 8, 'redis'), metadata={'id': 1 << 24}):
# the 75-byte proxied event of the e2e benchmark's ``stream_mixed``.
SIX_TUPLE_WIRE = bytes.fromhex(
    '8005954000000000000000288c20336635613366356133663561336635613366'
    '3561336635613366356133663561948c057265646973947d948c026964944a00'
    '000001734b004e8974942e'
)


@pytest.mark.parametrize('name', sorted(KEYS))
def test_every_key_type_round_trips_whole(name):
    key = KEYS[name]
    event = StreamEvent(key=key, metadata={'i': 7}, nbytes=131072)
    for wire in (event.encode(), bytearray(event.encode()), memoryview(event.encode())):
        decoded = StreamEvent.decode(wire, seq=5)
        assert decoded.key == key and type(decoded.key) is type(key)
        assert (decoded.metadata, decoded.nbytes, decoded.seq) == ({'i': 7}, 131072, 5)
        assert decoded.payload is None and decoded.end is False


@pytest.mark.parametrize('id_name', sorted(OBJECT_IDS))
def test_every_object_id_round_trips_exactly(id_name):
    for key in _keys(OBJECT_IDS[id_name]).values():
        event = StreamEvent(key=key, metadata={'i': 7})
        decoded = StreamEvent.decode(event.encode(), seq=5)
        # repr tells 'ab' from b'ab' and 1 from '1' where == might not.
        assert decoded == StreamEvent(key=key, metadata={'i': 7}, seq=5)
        assert type(decoded.key) is type(key) and repr(decoded.key) == repr(key)


@pytest.mark.parametrize('id_name', sorted(OBJECT_IDS))
def test_a_plain_key_with_a_payload_or_an_end_round_trips(id_name):
    key = ConnectorKey(OBJECT_IDS[id_name], 'redis')
    for event in (
        StreamEvent(key=key, payload=b'abc', nbytes=3),
        StreamEvent(key=key, end=True),
    ):
        decoded = StreamEvent.decode(event.encode())
        assert decoded == event and repr(decoded.key) == repr(key)


def test_a_plain_key_travels_without_its_class():
    wire = StreamEvent(key=KEYS['connector'], metadata={'i': 7}, nbytes=131072).encode()
    assert b'ConnectorKey' not in wire
    # The object id travels as its 16 raw bytes.
    assert bytes.fromhex(OBJECT_ID) in wire and OBJECT_ID.encode() not in wire
    assert len(wire) <= 61, len(wire)
    # An id that would not come back exactly travels as it is.
    upper = StreamEvent(key=ConnectorKey(OBJECT_ID.upper(), 'redis')).encode()
    assert OBJECT_ID.upper().encode() in upper
    # Richer keys keep naming theirs.
    assert b'MultiKey' in StreamEvent(key=KEYS['multi']).encode()


def test_an_event_written_before_ids_were_packed_still_decodes():
    decoded = StreamEvent.decode(SIX_TUPLE_WIRE, seq=3)
    assert decoded == StreamEvent(
        key=ConnectorKey('3f5a' * 8, 'redis'), metadata={'id': 1 << 24}, seq=3,
    )
    # Re-encoded, the same event is 18 bytes shorter.
    assert len(SIX_TUPLE_WIRE) - len(decoded.encode()) == 18


def test_the_ci_gate_holds_events_to_this_budget():
    from benchmarks import bench_proxy_ops as bench

    assert bench.EVENT_WIRE_BUDGET == EVENT_WIRE_BUDGET


def test_inline_and_end_events_keep_their_bytes():
    inline = StreamEvent(payload=b'abc', metadata={'a': 1}, nbytes=3)
    assert inline.encode() == INLINE_WIRE
    assert StreamEvent(end=True).encode() == END_WIRE
    assert StreamEvent.decode(INLINE_WIRE) == StreamEvent(
        payload=b'abc', metadata={'a': 1}, nbytes=3,
    )
    assert StreamEvent.decode(END_WIRE) == StreamEvent(end=True)
