"""Tests for the zero-copy wire format (SerializedObject, pickle-5, buffers)."""
from __future__ import annotations

import dataclasses
import pickle
import struct

import numpy as np
import pytest

from repro.connectors.local import LocalConnector
from repro.exceptions import SerializationError
from repro.serialize import SerializedObject
from repro.serialize import deserialize
from repro.serialize import payload_nbytes
from repro.serialize import register_serializer
from repro.serialize import segments_of
from repro.serialize import serialize
from repro.serialize import to_bytes
from repro.serialize import unregister_serializer

IDENTIFIERS = {
    'bytes': 0x01,
    'str': 0x02,
    'numpy': 0x07,
    'custom': 0x04,
    'pickle': 0x05,
    'pickle5': 0x06,
}


# --------------------------------------------------------------------------- #
# Round trips per identifier x input container
# --------------------------------------------------------------------------- #
def _input_forms(serialized):
    """Every container deserialize must accept: structured (or small frame),
    bytes, bytearray, memoryview."""
    joined = bytes(serialized)
    return [serialized, joined, bytearray(joined), memoryview(joined)]


THRESHOLD = 16 * 1024  # the default small-frame threshold
LARGE = 8 * THRESHOLD  # comfortably on the segmented zero-copy path


@pytest.mark.parametrize(
    'obj,ident',
    [
        (b'\x00raw\xff', 'bytes'),
        ('text \N{GREEK SMALL LETTER ALPHA}', 'str'),
        (np.arange(24, dtype=np.int32).reshape(4, 6), 'numpy'),
        ({'k': [1, 2, 3]}, 'pickle'),
    ],
)
def test_roundtrip_every_input_container(obj, ident):
    serialized = serialize(obj)
    assert bytes(serialized)[0] == IDENTIFIERS[ident]
    for form in _input_forms(serialized):
        restored = deserialize(form)
        if isinstance(obj, np.ndarray):
            assert np.array_equal(restored, obj)
        else:
            assert restored == obj


def test_bytearray_and_memoryview_inputs_serialize_zero_copy():
    backing = bytearray(b'm' * LARGE)
    serialized = serialize(backing)
    # The segment aliases the caller's buffer (no copy at serialize time).
    assert serialized.pieces[1] is backing
    assert deserialize(serialized) == bytes(backing)

    view = memoryview(b'v' * LARGE)
    serialized = serialize(view)
    assert serialized.pieces[1] is view
    assert deserialize(serialized) == bytes(view)


def test_small_bytearray_and_memoryview_become_compact_frames():
    # Sub-threshold mutable buffers are copied into a compact frame, which
    # also detaches them from later caller mutations for free.
    backing = bytearray(b'mutable payload')
    serialized = serialize(backing)
    assert type(serialized) is bytes
    backing[:4] = b'XXXX'
    assert deserialize(serialized) == b'mutable payload'
    view = memoryview(b'view payload')
    serialized = serialize(view)
    assert type(serialized) is bytes
    assert deserialize(serialized) == bytes(view)


def test_non_contiguous_memoryview_is_materialized():
    view = memoryview(bytes(range(32)))[::2]
    serialized = serialize(view)
    assert deserialize(serialized) == bytes(view)


def test_fortran_contiguous_memoryview_roundtrip():
    # F-contiguous (but not C-contiguous) views cannot be cast to a flat
    # byte view, so serialize must materialize them up front.
    view = memoryview(np.asfortranarray(np.arange(6.0).reshape(2, 3)))
    assert view.contiguous and not view.c_contiguous
    serialized = serialize(view)
    for segment in segments_of(serialized):  # every segment must be castable
        assert segment.c_contiguous
    assert deserialize(serialized) == bytes(view)
    assert deserialize(bytes(serialized)) == bytes(view)
    big = memoryview(
        np.asfortranarray(np.arange(float(LARGE)).reshape(2, -1)),
    )
    assert not big.c_contiguous
    serialized = serialize(big)
    for segment in serialized.segments():
        assert segment.c_contiguous
    assert deserialize(serialized) == bytes(big)


# --------------------------------------------------------------------------- #
# Zero-copy properties
# --------------------------------------------------------------------------- #
def test_serialize_bytes_is_zero_copy():
    payload = b'z' * LARGE
    serialized = serialize(payload)
    assert serialized.pieces[1] is payload
    assert serialized.nbytes == len(payload) + 1


def test_small_payloads_serialize_to_compact_frames():
    # Below the threshold every kind collapses to one contiguous bytes frame
    # (header byte + payload) — no segment scaffolding.
    for obj, ident in (
        (b'z' * 1024, 0x01),
        ('y' * 1024, 0x02),
        (np.arange(128, dtype=np.float64), 0x07),
        ({'k': [1, 2, 3]}, 0x05),
    ):
        serialized = serialize(obj)
        assert type(serialized) is bytes
        assert serialized[0] == ident
        restored = deserialize(serialized)
        if isinstance(obj, np.ndarray):
            assert np.array_equal(restored, obj)
        else:
            assert restored == obj


def test_serialize_ndarray_aliases_array_buffer():
    arr = np.arange(LARGE // 8, dtype=np.float64)
    serialized = serialize(arr)
    # Two segments: identifier + head, then the array's own buffer.
    assert [len(p) for p in serialized.pieces] == [15, arr.nbytes]
    raw = np.frombuffer(serialized.pieces[1], dtype=np.float64)
    assert np.shares_memory(raw, arr)


def test_deserialize_structured_ndarray_aliases_buffer():
    arr = np.arange(LARGE // 4, dtype=np.float32)
    restored = deserialize(serialize(arr))
    assert np.array_equal(restored, arr)
    assert np.shares_memory(restored, arr)


def test_deserialized_arrays_are_read_only():
    # Zero-copy arrays alias storage they do not own, so they surface
    # uniformly read-only across every input container and connector.
    arr = np.arange(LARGE // 8, dtype=np.float64)
    serialized = serialize(arr)
    for form in _input_forms(serialized) + [bytearray(bytes(serialized))]:
        restored = deserialize(form)
        assert not restored.flags.writeable
        with pytest.raises(ValueError):
            restored[0] = 1.0
    # ... including arrays reconstructed from pickle-5 out-of-band buffers.
    pair = TwoArrays(
        a=np.arange(LARGE // 8), b=np.arange(LARGE // 4, dtype=np.float32),
    )
    restored_pair = deserialize(serialize(pair))
    assert not restored_pair.a.flags.writeable
    # np.copy is the documented escape hatch.
    writable = np.copy(restored_pair.a)
    writable[0] = 99
    # Small frames copy the data, so those arrays own fresh memory and may
    # surface writable through pickle; correctness is the round trip.
    small = deserialize(serialize(np.arange(64, dtype=np.float64)))
    assert not small.flags.writeable  # array frames still parse as views


def test_many_segment_payload_exceeding_iov_max():
    # 1200+ out-of-band buffers exceed IOV_MAX (typically 1024) per
    # writev/sendmsg call; the vectored-write loops must chunk.
    from repro.connectors.file import FileConnector
    from repro.connectors.redis import RedisConnector
    from repro.serialize import small_frame_threshold

    # Arrays of exactly the threshold travel out-of-band, one segment each,
    # so the payload genuinely exceeds IOV_MAX segments.
    items = small_frame_threshold() // 4
    many = [np.full(items, i, dtype=np.int32) for i in range(1200)]
    serialized = serialize(many)
    assert len(serialized.pieces) > 1100
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        conn = FileConnector(tmp)
        key = conn.put(serialized)
        restored = deserialize(conn.get(key))
        assert len(restored) == 1200 and np.array_equal(restored[7], many[7])
        conn.close(clear=True)
    conn = RedisConnector(launch=True)
    try:
        key = conn.put(serialize(many))
        restored = deserialize(conn.get(key))
        assert len(restored) == 1200 and np.array_equal(restored[1199], many[1199])
    finally:
        conn.close(clear=True)


def test_local_connector_put_of_bytes_is_copy_free():
    payload = b'p' * LARGE
    serialized = serialize(payload)
    with LocalConnector() as connector:
        key = connector.put(serialized)
        stored = connector._store[key]
        # The connector retained the SerializedObject itself and its payload
        # segment is still the producer's bytes object: zero copies.
        assert isinstance(stored, SerializedObject)
        assert stored.pieces[1] is payload
        assert deserialize(connector.get(key)) == payload


def test_local_connector_freezes_mutable_buffers():
    backing = bytearray(b'will be mutated')
    with LocalConnector() as connector:
        key = connector.put(serialize(backing))
        backing[:4] = b'XXXX'
        assert deserialize(connector.get(key)) == b'will be mutated'


def test_fortran_order_array_roundtrip():
    arr = np.asfortranarray(np.arange(35, dtype=np.float64).reshape(5, 7))
    for form in _input_forms(serialize(arr)):
        restored = deserialize(form)
        assert np.array_equal(restored, arr)


def test_non_contiguous_array_roundtrip():
    arr = np.arange(100).reshape(10, 10)[::2, ::3]
    restored = deserialize(serialize(arr))
    assert np.array_equal(restored, arr)


def test_datetime64_array_roundtrip():
    # datetime64/timedelta64 export no buffer: serialize views their bytes
    # instead of crashing on the zero-copy cast, and large ones alias.
    arr = np.array(['2024-01-01', '2026-07-29'], dtype='datetime64[D]')
    for form in _input_forms(serialize(arr)):
        restored = deserialize(form)
        assert np.array_equal(restored, arr)
        assert restored.dtype == arr.dtype
    big = np.arange(LARGE // 8, dtype='m8[s]')
    serialized = serialize(big)
    assert np.shares_memory(np.frombuffer(serialized.pieces[1], np.uint8), big)
    restored = deserialize(serialized)
    assert restored.dtype == big.dtype and np.array_equal(restored, big)


def test_object_dtype_array_raises():
    arr = np.array([object(), object()])
    with pytest.raises(SerializationError):
        serialize(arr)


# --------------------------------------------------------------------------- #
# The 0x07 array frame
# --------------------------------------------------------------------------- #
def _array_frame(code: bytes, dims, data: bytes = b'', *, ndim=None, fortran=0):
    """A hand-built 0x07 frame: the head fields as given, then ``data``."""
    ndim = len(dims) if ndim is None else ndim
    head = bytes([0x07, len(code), ndim, fortran]) + code
    return head + struct.pack(f'<{len(dims)}Q', *dims) + data


def test_array_frame_bytes_are_pinned():
    arr = np.asfortranarray(np.arange(6, dtype='<i2').reshape(2, 3))
    frame = serialize(arr)
    assert frame == (
        b'\x07\x03\x02\x01<i2'
        b'\x02\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00'
        b'\x00\x00\x03\x00\x01\x00\x04\x00\x02\x00\x05\x00'
    )
    restored = deserialize(frame)
    assert restored.flags.f_contiguous and np.array_equal(restored, arr)


def test_a_one_dimensional_float_array_has_a_15_byte_head():
    arr = np.arange(LARGE // 8, dtype=np.float64)
    head, data = serialize(arr).pieces
    assert head == b'\x07\x03\x01\x00<f8' + struct.pack('<Q', arr.size)
    assert len(data) == arr.nbytes


@pytest.mark.parametrize(
    'frame',
    [
        pytest.param(b'\x07', id='ident-only'),
        pytest.param(b'\x07\x03\x01', id='fixed-fields'),
        pytest.param(b'\x07\x03\x01\x00<f', id='code'),
        pytest.param(_array_frame(b'<f8', [2])[:-3], id='dims'),
        pytest.param(_array_frame(b'<f8', [2], bytes(15)), id='short-data'),
        pytest.param(_array_frame(b'<f8', [2], bytes(17)), id='long-data'),
        pytest.param(_array_frame(b'<f8', [3, 2], bytes(16)), id='dims-mismatch'),
        pytest.param(_array_frame(b'|O', [2], bytes(16)), id='object'),
        pytest.param(_array_frame(b'|O8', [2], bytes(16)), id='object8'),
        pytest.param(_array_frame(b'(2,)<f8', [1], bytes(16)), id='subarray'),
        pytest.param(_array_frame('<f\u00e98'.encode(), [1], bytes(8)), id='non-ascii'),
        pytest.param(_array_frame(b'float64', [1], bytes(8)), id='not-canonical'),
        pytest.param(_array_frame(b'<f3', [1], bytes(8)), id='no-such-dtype'),
        pytest.param(_array_frame(b'|V0', [0]), id='zero-itemsize'),
        pytest.param(
            _array_frame(b'|u1', [1] * 65, bytes(1)), id='ndim-65',
        ),
        pytest.param(_array_frame(b'<f8', [1], bytes(8), fortran=2), id='fortran-2'),
        pytest.param(_array_frame(b'<f8', [0, 1 << 63]), id='dim-too-large'),
        pytest.param(
            _array_frame(b'<f8', [0, 1 << 62, 1 << 62]), id='size-too-large',
        ),
    ],
)
def test_malformed_array_frames_are_refused(frame):
    """Every malformed head raises SerializationError, in every container."""
    forms = [frame, memoryview(frame), bytearray(frame)]
    for cut in (4, len(frame) - 16, len(frame) - 8):
        if 1 < cut < len(frame):
            forms.append(SerializedObject([frame[:cut], frame[cut:]]))
    for form in forms:
        with pytest.raises(SerializationError):
            deserialize(form)


def test_an_exact_two_piece_frame_is_read_without_a_join():
    arr = np.arange(LARGE // 8, dtype='>f8').reshape(2, -1)
    head, data = serialize(arr).pieces
    received = bytearray(data)
    restored = deserialize(SerializedObject([head, received]))
    assert restored.dtype == arr.dtype and np.array_equal(restored, arr)
    assert np.shares_memory(restored, np.frombuffer(received, np.uint8))
    assert not restored.flags.writeable


def test_a_frame_split_inside_its_head_still_reads():
    arr = np.arange(LARGE // 8, dtype=np.float64)
    wire = bytes(serialize(arr))
    for cut in (2, 9, 16, 20):
        split = SerializedObject([wire[:cut], wire[cut:]])
        assert np.array_equal(deserialize(split), arr)


def test_the_dtype_code_memo_is_bounded():
    from repro.serialize import serializer

    for width in range(1, 400):
        restored = deserialize(_array_frame(f'|S{width}'.encode(), [1], bytes(width)))
        assert restored.dtype == np.dtype(f'S{width}')
        assert len(serializer._code_dtypes) <= 256


@pytest.mark.parametrize('size', [3, LARGE // 8])
def test_structured_arrays_travel_as_pickle(size):
    arr = np.zeros(size, dtype=[('x', '<i8'), ('y', '<f8', (2,))])
    arr['x'] = np.arange(size)
    serialized = serialize(arr)
    assert bytes(serialized[:1])[0] in (IDENTIFIERS['pickle'], IDENTIFIERS['pickle5'])
    restored = deserialize(serialized)
    assert restored.dtype == arr.dtype and np.array_equal(restored, arr)


def test_dtype_metadata_travels_as_pickle():
    arr = np.zeros(3, dtype=np.dtype('<f8', metadata={'unit': 'm'}))
    serialized = serialize(arr)
    assert serialized[0] == IDENTIFIERS['pickle']
    assert deserialize(serialized).dtype.metadata == {'unit': 'm'}


# --------------------------------------------------------------------------- #
# ndarray subclasses keep their type and state
# --------------------------------------------------------------------------- #
def test_masked_array_keeps_its_mask():
    arr = np.ma.array([1.0, 2.0, 3.0], mask=[0, 1, 0])
    restored = deserialize(serialize(arr))
    assert type(restored) is np.ma.MaskedArray
    assert restored.mask.tolist() == [False, True, False]
    assert restored.sum() == 4.0


@pytest.mark.filterwarnings('ignore::PendingDeprecationWarning')
def test_matrix_stays_a_matrix():
    arr = np.matrix([[1, 2], [3, 4]])
    restored = deserialize(serialize(arr))
    assert type(restored) is np.matrix
    assert np.array_equal(restored @ restored, arr @ arr)


def test_recarray_stays_a_recarray():
    arr = np.rec.array([(1, 2.0), (3, 4.0)], dtype=[('a', '<i4'), ('b', '<f8')])
    restored = deserialize(serialize(arr))
    assert type(restored) is np.recarray
    assert restored.a.tolist() == [1, 3] and restored.b.tolist() == [2.0, 4.0]


def test_memmap_takes_the_array_frame(tmp_path):
    arr = np.memmap(tmp_path / 'm.bin', dtype='<f4', mode='w+', shape=(4, 5))
    arr[:] = np.arange(20).reshape(4, 5)
    serialized = serialize(arr)
    assert serialized[0] == IDENTIFIERS['numpy']
    restored = deserialize(serialized)
    assert restored.dtype == arr.dtype and np.array_equal(restored, arr)
    del arr


# --------------------------------------------------------------------------- #
# Pickle protocol 5 out-of-band buffers
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class TwoArrays:
    a: np.ndarray
    b: np.ndarray
    label: str = 'pair'

    def __eq__(self, other):
        return (
            isinstance(other, TwoArrays)
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
            and self.label == other.label
        )


def test_pickle5_multi_buffer_roundtrip():
    obj = TwoArrays(
        a=np.arange(LARGE // 8, dtype=np.int64),
        b=np.random.rand(256, LARGE // 2048),
    )
    serialized = serialize(obj)
    assert bytes(serialized)[0] == IDENTIFIERS['pickle5']
    # Header + pickle + one out-of-band buffer per array.
    assert len(serialized.pieces) == 4
    for form in _input_forms(serialized):
        assert deserialize(form) == obj


def test_pickle5_buffers_are_out_of_band_views():
    obj = TwoArrays(
        a=np.arange(LARGE // 8),
        b=np.arange(LARGE // 4, dtype=np.float32),
    )
    serialized = serialize(obj)
    raw = np.frombuffer(serialized.pieces[2], dtype=np.int64)
    assert np.shares_memory(raw, obj.a)


def test_small_buffers_stay_in_band():
    # Sub-threshold pickle-5 buffers are kept inline by the buffer sieve, so
    # a container of tiny arrays yields one compact in-band pickle payload
    # instead of thousands of out-of-band segments.
    obj = TwoArrays(a=np.arange(32), b=np.arange(8, dtype=np.float32))
    serialized = serialize(obj)
    assert type(serialized) is bytes
    assert serialized[0] == IDENTIFIERS['pickle']
    assert deserialize(serialized) == obj


def test_small_objects_stay_in_band():
    serialized = serialize({'tiny': True})
    assert type(serialized) is bytes
    assert serialized[0] == IDENTIFIERS['pickle']


# --------------------------------------------------------------------------- #
# Size edge cases
# --------------------------------------------------------------------------- #
def test_empty_payloads_roundtrip():
    for obj in (b'', '', np.empty((0, 3))):
        for form in _input_forms(serialize(obj)):
            restored = deserialize(form)
            if isinstance(obj, np.ndarray):
                assert restored.shape == obj.shape
            else:
                assert restored == obj


def test_large_payload_roundtrip():
    payload = bytes(bytearray(range(256)) * (9 * 4096))  # > 8 MiB
    assert len(payload) > 8 * 1024 * 1024
    serialized = serialize(payload)
    assert deserialize(serialized) == payload
    assert deserialize(bytes(serialized)) == payload


def test_large_ndarray_roundtrip():
    arr = np.random.default_rng(1).random(9 * 1024 * 1024 // 8 + 1)  # > 8 MiB
    assert arr.nbytes > 8 * 1024 * 1024
    for form in (serialize(arr), memoryview(bytes(serialize(arr)))):
        assert np.array_equal(deserialize(form), arr)


# --------------------------------------------------------------------------- #
# Custom serializers through the buffer-aware format
# --------------------------------------------------------------------------- #
class Wrapped:
    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return isinstance(other, Wrapped) and self.text == other.text


def test_custom_serializer_roundtrip_all_containers():
    register_serializer(
        'wrapped',
        Wrapped,
        lambda w: w.text.encode(),
        lambda data: Wrapped(data.decode()),
    )
    try:
        serialized = serialize(Wrapped('hello'))
        assert bytes(serialized)[0] == IDENTIFIERS['custom']
        for form in _input_forms(serialized):
            assert deserialize(form) == Wrapped('hello')
    finally:
        unregister_serializer('wrapped')


# --------------------------------------------------------------------------- #
# SerializedObject API
# --------------------------------------------------------------------------- #
def test_serialized_object_api():
    payload = b'a' * LARGE
    serialized = serialize(payload)
    assert len(serialized) == LARGE + 1
    assert serialized.nbytes == LARGE + 1
    assert serialized[0] == 0x01
    assert serialized[1:] == payload
    assert serialized.startswith(b'\x01aa')
    assert serialized == bytes(serialized)
    assert [len(s) for s in serialized.segments()] == [1, LARGE]


def test_small_frame_is_plain_bytes():
    frame = serialize(b'abcd')
    assert type(frame) is bytes
    assert frame == b'\x01abcd'


def test_serialized_object_pickles_as_joined_bytes():
    arr = np.arange(LARGE // 8)
    serialized = serialize(arr)
    clone = pickle.loads(pickle.dumps(serialized))
    assert isinstance(clone, SerializedObject)
    assert bytes(clone) == bytes(serialized)
    assert np.array_equal(deserialize(clone), arr)


def test_payload_helpers():
    serialized = serialize(b'xyz')
    assert payload_nbytes(serialized) == 4
    assert payload_nbytes(b'xyz') == 3
    assert payload_nbytes(memoryview(b'xyz')) == 3
    assert to_bytes(serialized) == bytes(serialized)
    data = b'already'
    assert to_bytes(data) is data
    assert sum(len(s) for s in segments_of(serialized)) == 4
    assert segments_of(b'') == []


def test_legacy_contiguous_format_still_parses():
    # Pre-buffer payloads (plain ident+payload concatenation) stay readable.
    import io

    arr = np.arange(10)
    legacy = io.BytesIO()
    np.save(legacy, arr, allow_pickle=False)
    assert np.array_equal(deserialize(b'\x03' + legacy.getvalue()), arr)
    assert deserialize(b'\x01raw') == b'raw'
    assert deserialize(b'\x05' + pickle.dumps([1, 2])) == [1, 2]


# --------------------------------------------------------------------------- #
# The memoised .npy header parse (legacy 0x03 frames)
# --------------------------------------------------------------------------- #
def _legacy_frame(arr: np.ndarray) -> bytes:
    """A 0x03 frame as serializers before the 0x07 array frame wrote it."""
    import io

    npy = io.BytesIO()
    np.save(npy, arr, allow_pickle=False)
    return b'\x03' + npy.getvalue()


def test_renaming_fields_does_not_leak_into_the_next_deserialize():
    """Only the header literal is cached; every array gets its own dtype."""
    from repro.serialize.serializer import _npy_header_fields

    arr = np.zeros(4096, dtype=[('x', '<i8'), ('y', '<f8', (2,))])
    frame = _legacy_frame(arr)
    for frame in (frame, SerializedObject([frame[:1], frame[1:]])):
        _npy_header_fields.cache_clear()
        first = deserialize(frame)
        first.dtype.names = ('p', 'q')
        second = deserialize(frame)
        assert _npy_header_fields.cache_info().hits == 1
        assert second.dtype.names == ('x', 'y')
        assert second.dtype == arr.dtype and np.array_equal(second, arr)


def test_object_dtype_header_is_refused_every_time():
    import io

    from repro.serialize.serializer import _npy_header_fields

    npy = io.BytesIO()
    np.save(npy, np.array([{'a': 1}, None], dtype=object), allow_pickle=True)
    frame = b'\x03' + npy.getvalue()
    _npy_header_fields.cache_clear()
    for _ in range(2):  # uncached, then cached
        with pytest.raises(SerializationError, match='object-dtype'):
            deserialize(frame)
