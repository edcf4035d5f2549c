"""Randomized round-trip fuzzing of the wire format.

The serializer now has two frame families — compact small frames (plain
``bytes``: one ident byte + payload) and segmented large frames
(``SerializedObject``) — chosen by payload size.  This suite sweeps the
ident x container-kind matrix with sizes clustered on the interesting
boundaries (0, 1, threshold-1, threshold, threshold+1, and multi-MiB) and
asserts, for every draw:

* the round trip is value-identical (byte-identical for bytes payloads),
* re-serializing the round-tripped value is byte-identical on the wire
  (serialization is deterministic, so this catches any drift between the
  two frame families),
* every legacy-style flat frame still deserializes (consumers upgraded
  before producers keep working),
* the large path keeps its zero-copy aliasing guarantees.

Seeded RNG: failures print the seed so any draw reproduces exactly.
"""
from __future__ import annotations

import dataclasses
import os
import random
import string
import struct

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.serialize import SerializedObject
from repro.serialize import deserialize
from repro.serialize import serialize
from repro.serialize.serializer import small_frame_threshold

DEFAULT_SEED = 20260807
SEED = int(os.environ.get('REPRO_FUZZ_SEED', DEFAULT_SEED))
DRAWS_PER_KIND = int(os.environ.get('REPRO_FUZZ_DRAWS', '24'))

THRESHOLD = small_frame_threshold()

#: Sizes clustered on the routing boundaries plus a genuinely large tail.
BOUNDARY_SIZES = (
    0,
    1,
    THRESHOLD - 1,
    THRESHOLD,
    THRESHOLD + 1,
    8 * 1024 * 1024 + 17,
)


@dataclasses.dataclass
class Sample:
    """A pickled container mixing scalars with a bulk payload."""

    tag: str
    blob: bytes
    numbers: list[int]


def _random_size(rng: random.Random) -> int:
    """Boundary sizes most of the time, a uniform filler otherwise."""
    if rng.random() < 0.75:
        return rng.choice(BOUNDARY_SIZES)
    return rng.randrange(0, 4 * THRESHOLD)


def _make_bytes(rng: random.Random, size: int) -> bytes:
    return rng.randbytes(size)


def _make_bytearray(rng: random.Random, size: int) -> bytearray:
    return bytearray(rng.randbytes(size))


def _make_memoryview(rng: random.Random, size: int) -> memoryview:
    return memoryview(rng.randbytes(size))


def _make_str(rng: random.Random, size: int) -> str:
    # Mix of ASCII and multibyte so encoded length != character count.
    # One ``choices`` call: a ``choice`` per character took ~2 s per 8 MiB.
    alphabet = string.ascii_letters + string.digits + 'é世界'
    return ''.join(rng.choices(alphabet, k=size))


#: Every dtype family the 0x07 frame carries (``|u1`` keeps the exact
#: boundary sizes; the others land within one item of them).
ARRAY_DTYPES = (
    '|u1', '|b1', '<i2', '>f8', '<c16', '<U3', '|S5', '<M8[ns]', '<m8[s]', '|V8',
)


def _make_ndarray(rng: random.Random, size: int) -> np.ndarray:
    """A random-bytes array of a drawn dtype, shape and memory order.

    Shapes are 1-D (most draws), ``()``, ``(0, 3)`` or 3-D; multi-dimensional
    arrays are Fortran-ordered half the time.
    """
    dtype = np.dtype(rng.choice(ARRAY_DTYPES))
    count = size // dtype.itemsize
    shape = rng.choice(
        [(count,), (count,), (), (0, 3), (max(count // 6, 1), 2, 3)],
    )
    nbytes = int(np.prod(shape)) * dtype.itemsize
    arr = np.frombuffer(rng.randbytes(nbytes), dtype=dtype).reshape(shape)
    if len(shape) > 1 and rng.random() < 0.5:
        return np.asfortranarray(arr)
    return arr.copy()


def _make_pickled(rng: random.Random, size: int) -> Sample:
    return Sample(
        tag=''.join(rng.choice(string.ascii_lowercase) for _ in range(8)),
        blob=rng.randbytes(size),
        numbers=[rng.randrange(1 << 30) for _ in range(5)],
    )


KINDS = {
    'bytes': _make_bytes,
    'bytearray': _make_bytearray,
    'memoryview': _make_memoryview,
    'str': _make_str,
    'ndarray': _make_ndarray,
    'pickled': _make_pickled,
}


def _check_str_coverage(kind: str, sizes: set[int]) -> None:
    """Under the default seed the ``str`` draws hit every boundary size.

    Pinned because ``str`` draws are the slow ones, the first to be cut;
    another ``REPRO_FUZZ_SEED`` may draw a different mix.
    """
    if kind == 'str' and SEED == DEFAULT_SEED:
        assert set(BOUNDARY_SIZES) <= sizes, sorted(set(BOUNDARY_SIZES) - sizes)


def _values_equal(a: object, b: object) -> bool:
    if isinstance(a, np.ndarray):
        # Bitwise, so NaN and NaT payloads compare equal to themselves.
        return (
            type(b) is np.ndarray
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.flags.f_contiguous == b.flags.f_contiguous
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (bytearray, memoryview)):
        # bytearray/memoryview payloads round-trip as immutable bytes.
        return bytes(a) == b
    return a == b


@pytest.mark.parametrize('kind', sorted(KINDS))
def test_fuzz_round_trip(kind: str) -> None:
    """Every draw round-trips value-identically on either frame family."""
    rng = random.Random(f'{SEED}-{kind}')
    make = KINDS[kind]
    sizes = set()
    for draw in range(DRAWS_PER_KIND):
        size = _random_size(rng)
        sizes.add(size)
        obj = make(rng, size)
        frame = serialize(obj)
        result = deserialize(frame)
        assert _values_equal(obj, result), (
            f'round trip mismatch: seed={SEED} kind={kind} draw={draw} '
            f'size={size}'
        )
        # Determinism across frame families: re-serializing the result
        # produces the same wire bytes (pickled containers are exempt —
        # pickle memoization is not guaranteed stable across objects).
        if kind != 'pickled':
            again = serialize(result if kind != 'memoryview' else memoryview(result))
            assert bytes(frame) == bytes(again), (
                f'non-deterministic wire bytes: seed={SEED} kind={kind} '
                f'draw={draw} size={size}'
            )
    _check_str_coverage(kind, sizes)


@pytest.mark.parametrize('kind', sorted(KINDS))
def test_fuzz_frame_family_matches_size(kind: str) -> None:
    """Sub-threshold payloads become compact frames, large ones segment."""
    rng = random.Random(f'{SEED}-family-{kind}')
    make = KINDS[kind]
    sizes = set()
    for _ in range(DRAWS_PER_KIND):
        size = _random_size(rng)
        sizes.add(size)
        frame = serialize(make(rng, size))
        if isinstance(frame, SerializedObject):
            # The segmented family only appears beyond the threshold.
            assert frame.nbytes >= THRESHOLD
        else:
            assert isinstance(frame, bytes)
            # One ident byte plus payload; headers may add a little.
            assert len(frame) >= 1
    _check_str_coverage(kind, sizes)


@pytest.mark.parametrize('kind', ['bytes', 'str', 'ndarray', 'pickled'])
def test_fuzz_legacy_flat_frames_still_deserialize(kind: str) -> None:
    """A flat legacy frame (pre-small-path producer) parses on every size.

    Legacy producers always emitted ident + payload joined into one byte
    string; ``deserialize`` must keep accepting that for every ident and
    size, including sizes the new producer would emit differently.
    """
    rng = random.Random(f'{SEED}-legacy-{kind}')
    make = KINDS[kind]
    sizes = set()
    for draw in range(DRAWS_PER_KIND):
        size = _random_size(rng)
        sizes.add(size)
        obj = make(rng, size)
        flat = bytes(serialize(obj))  # joining segments = the legacy frame
        result = deserialize(flat)
        assert _values_equal(obj, result), (
            f'legacy frame mismatch: seed={SEED} kind={kind} draw={draw} '
            f'size={size}'
        )
        # Legacy frames also arrive as memoryviews (e.g. from sockets).
        assert _values_equal(obj, deserialize(memoryview(flat)))
    _check_str_coverage(kind, sizes)


def test_fuzz_large_path_zero_copy_aliasing() -> None:
    """Above-threshold frames alias caller memory; deserialize aliases back."""
    rng = random.Random(f'{SEED}-alias')
    for _ in range(10):
        size = rng.choice(BOUNDARY_SIZES[-2:])  # threshold+1 and 8 MiB+
        payload = rng.randbytes(size)
        frame = serialize(payload)
        assert isinstance(frame, SerializedObject)
        # The payload segment is the caller's bytes object, not a copy.
        assert any(seg is payload for seg in frame.pieces)
        result = deserialize(frame)
        assert result is payload  # bytes round-trip by reference

        arr = np.frombuffer(rng.randbytes(size), dtype=np.uint8).copy()
        arr_frame = serialize(arr)
        assert isinstance(arr_frame, SerializedObject)
        out = deserialize(arr_frame)
        # The array's data region aliases a frame segment (no bulk copy).
        byte_bounds = np.lib.array_utils.byte_bounds
        out_lo, out_hi = byte_bounds(out)
        aliased = False
        for seg in arr_frame.segments():
            seg_arr = np.frombuffer(seg, dtype=np.uint8)
            if seg_arr.size < out.nbytes:
                continue
            seg_lo, seg_hi = byte_bounds(seg_arr)
            if seg_lo <= out_lo and out_hi <= seg_hi:
                aliased = True
                break
        assert aliased, f'deserialized array copied its {size}-byte payload'


def test_fuzz_array_dtype_codes_are_exact_or_refused() -> None:
    """A 0x07 frame with any code reads as that exact dtype or raises
    SerializationError, never a NumPy error."""
    rng = random.Random(f'{SEED}-codes')
    alphabet = '<>|=()[],:0123456789bcfimMOSUVaehlqstuwxyz '
    for draw in range(2000):
        # A valid code with 0-2 one-character edits.
        code = rng.choice(ARRAY_DTYPES)
        for _ in range(rng.randrange(3)):
            at = rng.randrange(len(code) + 1)
            cut = rng.randrange(2)
            code = code[:at] + rng.choice(alphabet) + code[at + cut:]
        itemsize = rng.choice((1, 2, 3, 4, 5, 8, 12, 16, 20))
        frame = bytes([7, len(code), 1, 0]) + code.encode() + struct.pack('<Q', 1)
        try:
            arr = deserialize(frame + bytes(itemsize))
        except SerializationError:
            continue
        assert arr.dtype.str == code and arr.dtype.itemsize == itemsize, (
            f'seed={SEED} draw={draw} code={code!r}'
        )


def test_fuzz_empty_and_single_byte_payloads() -> None:
    """The degenerate sizes round-trip for every kind."""
    for kind, make in KINDS.items():
        rng = random.Random(f'{SEED}-tiny-{kind}')
        for size in (0, 1):
            obj = make(rng, size)
            assert _values_equal(obj, deserialize(serialize(obj))), (
                f'kind={kind} size={size}'
            )
