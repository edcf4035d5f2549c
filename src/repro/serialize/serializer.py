"""Default object serialization (zero-copy wire format + small-frame path).

The :class:`~repro.store.Store` serializes Python objects before handing them
to a :class:`~repro.connectors.Connector`.  The default serializer uses cheap
fast paths for ``bytes``, ``str`` and NumPy arrays and falls back to pickle
for everything else.  Custom per-type serializers can be registered through
:mod:`repro.serialize.registry`.

``serialize`` returns one of two containers depending on payload size, both
carrying the *same* wire format:

* **Small payloads** (below :func:`small_frame_threshold`, default 16 KiB)
  come back as plain ``bytes``: one header byte plus the payload, already
  contiguous.  At this scale a single memcpy is cheaper than the segment
  bookkeeping, so the small path skips :class:`SerializedObject` entirely —
  this is what makes the 1 KB regime faster than the legacy serializer.
* **Large payloads** come back as a
  :class:`~repro.serialize.buffers.SerializedObject`: a one-byte identifier
  header plus buffer segments that alias the source object's memory wherever
  possible (raw byte payloads, NumPy array buffers, pickle protocol 5
  out-of-band buffers).  Joining the segments yields the contiguous wire
  bytes; buffer-aware connectors skip the join entirely.

Because both containers serialize to identical wire bytes, readers never
need to know which path the writer took: ``deserialize`` dispatches on the
identifier byte alone, so small frames, joined segment payloads, and
pre-buffer legacy payloads all coexist on the wire.

Dispatch itself is cached per exact type (invalidated whenever the custom
serializer registry changes), so steady-state traffic skips the proxy
subclass check, the registry lookup, and the isinstance chain.

Wire format (the small frame, or the concatenation of the segments): a
one-byte identifier followed by the payload.

====  =======================================================
byte  payload
====  =======================================================
0x01  raw bytes (no transformation)
0x02  UTF-8 encoded ``str``
0x03  NumPy array in ``.npy`` format (header + raw array data);
      read-only: payloads written before the 0x07 frame existed
0x04  payload produced by a registered custom serializer; the
      identifier name (UTF-8) and a newline precede the payload
0x05  pickle (in-band, highest protocol)
0x06  pickle protocol 5 with out-of-band buffers::

          uint32 n  |  uint64 pickle_len  |  n x uint64 buffer_len
          pickle bytes  |  buffer 0  |  ...  |  buffer n-1
0x07  NumPy array: a compact little-endian head, then the raw
      data in the array's own memory order::

          u8 len(code)  |  u8 ndim  |  u8 fortran
          dtype code (ASCII, e.g. ``<f8``)  |  ndim x u64 dims
          data (prod(dims) x itemsize bytes)
====  =======================================================

An ndarray (or ``np.memmap``) takes 0x07 when its dtype's ``.str`` code
rebuilds that dtype exactly: no fields, no subarray, no metadata, no
object, itemsize above 0.  Large arrays travel as two segments, the head
(identifier included: 15 bytes for a 1-D ``<f8`` array) and a zero-copy
view of the data.  Structured arrays, dtypes with metadata and every
ndarray subclass other than ``np.memmap`` (masked arrays, ``np.matrix``,
``np.recarray``) travel as pickle, which keeps their type and extra state;
object-dtype arrays are refused.  Nothing writes 0x03 any more; a reader
that predates 0x07 cannot read it.

``deserialize`` accepts ``bytes``, ``bytearray``, ``memoryview`` (and any
other single contiguous buffer, e.g. an ``mmap``) or a ``SerializedObject``
and never materializes large input up front: payloads are parsed through
``memoryview`` slices, NumPy arrays are reconstructed with ``np.frombuffer``
over the received buffer, and pickle-5 buffers are handed to
``pickle.loads(..., buffers=...)`` as views.  (Sub-threshold ``bytes`` input
is instead sliced directly — at that scale the copy is cheaper than the
``memoryview`` indirection.)  Deserialized arrays on the zero-copy path are
uniformly **read-only** — they alias storage they do not own (received
buffers, memory-mapped files, a same-process producer's memory); call
``np.copy`` on a fetched array before mutating it.
"""
from __future__ import annotations

import ast
import functools
import io
import math
import pickle
import re
import struct
from typing import Any

import numpy as np

from repro.exceptions import SerializationError
from repro.serialize.buffers import BytesLike
from repro.serialize.buffers import SerializedObject
from repro.serialize.registry import default_registry

# The Proxy class is imported lazily (repro.proxy imports this module) and
# cached: the subclass check runs whenever a type is first classified.
_PROXY_CLS: type | None = None

_IDENT_BYTES = b'\x01'
_IDENT_STR = b'\x02'
_IDENT_NUMPY = b'\x03'
_IDENT_CUSTOM = b'\x04'
_IDENT_PICKLE = b'\x05'
_IDENT_PICKLE5 = b'\x06'
_IDENT_ARRAY = b'\x07'

_U32 = struct.Struct('>I')
_U64 = struct.Struct('>Q')

#: The 0x07 head: identifier, len(code), ndim, fortran; then the code and
#: ``_ARRAY_DIMS[ndim]``.
_ARRAY_HEAD = struct.Struct('<4B')
_ARRAY_FIELDS = struct.Struct('<3B')
_ARRAY_MAX_NDIM = 64
_ARRAY_DIMS = tuple(struct.Struct(f'<{n}Q') for n in range(_ARRAY_MAX_NDIM + 1))
#: Entries each 0x07 memo keeps before it starts over.
_ARRAY_MEMO_SIZE = 256
#: What a simple dtype's ``.str`` looks like: ``<f8``, ``|S5``, ``<M8[25ns]``
#: (never the deprecated ``a`` alias, which ``.str`` spells ``S``).
_CODE_SHAPE = re.compile(rb'[<>|][b-zA-Z][0-9]+(\[[0-9]*[A-Za-z]+\])?')

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_pickle_dumps = pickle.dumps
_pickle_loads = pickle.loads

__all__ = [
    'serialize',
    'deserialize',
    'small_frame_threshold',
    'BytesLike',
    'SerializedObject',
]


# --------------------------------------------------------------------------- #
# Small-frame threshold
# --------------------------------------------------------------------------- #
_SMALL_FRAME_THRESHOLD = 16 * 1024


def small_frame_threshold() -> int:
    """Return the small-frame threshold in bytes (16 KiB).

    Payloads strictly smaller than this are serialized as one compact
    ``bytes`` frame instead of a segmented :class:`SerializedObject`.  The
    threshold only decides which *container* the writer produces: the wire
    bytes are identical either way.
    """
    return _SMALL_FRAME_THRESHOLD


# --------------------------------------------------------------------------- #
# Per-type dispatch routes
# --------------------------------------------------------------------------- #
# Route codes cached per exact type.  _R_PICKLE starts optimistic — a plain
# in-band dumps with no buffer_callback, which is exactly the minimal work
# the legacy serializer did — and is upgraded (sticky) to _R_PICKLE_SIEVED
# the first time an instance overflows the threshold, after which the type
# pays the buffer-sieve callback to keep large buffers out-of-band.
_R_BYTES = 0
_R_BYTEVIEW = 1
_R_STR = 2
_R_NDARRAY = 3
_R_PROXY = 4
_R_PICKLE = 5
_R_PICKLE_SIEVED = 6
_R_CUSTOM = 7

_routes: dict[type, int] = {}
_routes_version = -1


def _classify(obj: Any) -> int:
    """Slow-path route classification for a type not yet in the cache."""
    global _PROXY_CLS
    if _PROXY_CLS is None:
        # Deferred to avoid a circular import at module load time.
        from repro.proxy.proxy import Proxy

        _PROXY_CLS = Proxy

    tp = type(obj)
    # Proxies are handled before any isinstance-based dispatch: isinstance
    # checks would transparently resolve the proxy (and then serialize the
    # full target), whereas the whole point of communicating a proxy is that
    # only its factory travels.  Pickling a proxy does exactly that.
    if issubclass(tp, _PROXY_CLS):
        return _R_PROXY
    if default_registry.find(obj) is not None:
        return _R_CUSTOM
    if issubclass(tp, bytes):
        return _R_BYTES
    if issubclass(tp, (bytearray, memoryview)):
        return _R_BYTEVIEW
    if issubclass(tp, str):
        return _R_STR
    # Exact types only: a subclass (masked array, matrix, recarray) carries
    # state or a type that the array frame would drop, and pickle keeps both.
    if tp is np.ndarray or tp is np.memmap:
        return _R_NDARRAY
    return _R_PICKLE


class _NonContiguousBuffer(Exception):
    """Raised inside the buffer sieve to abort an out-of-band dumps."""


class _BufferSieve:
    """pickle-5 ``buffer_callback`` that routes buffers by size.

    Buffers below the small-frame threshold are kept in-band (returning a
    truthy value tells the pickler to serialize the buffer inline), so tiny
    arrays inside an object do not explode into per-buffer segments; buffers
    at or above the threshold are captured for the out-of-band 0x06 layout.
    """

    __slots__ = ('oob',)

    def __init__(self) -> None:
        self.oob: list[memoryview] = []

    def __call__(self, buf: pickle.PickleBuffer) -> bool:
        try:
            raw = buf.raw()
        except BufferError:
            # A contributing buffer is non-contiguous; the caller falls back
            # to a fully in-band dumps.
            raise _NonContiguousBuffer from None
        if raw.nbytes < _SMALL_FRAME_THRESHOLD:
            return True
        self.oob.append(raw)
        return False


def _pickle_payload(obj: Any) -> 'bytes | SerializedObject':
    """Pickle ``obj``, keeping large buffers out-of-band (wire id 0x06).

    Small results (no out-of-band buffers, payload below the threshold)
    produce a compact 0x05 frame; in-band results at or above the threshold
    keep the classic two-segment 0x05 layout.
    """
    sieve = _BufferSieve()
    try:
        payload = _pickle_dumps(
            obj, protocol=_PICKLE_PROTOCOL, buffer_callback=sieve,
        )
    except _NonContiguousBuffer:
        payload = _pickle_dumps(obj, protocol=_PICKLE_PROTOCOL)
        sieve.oob = []
    oob = sieve.oob
    if not oob:
        if len(payload) < _SMALL_FRAME_THRESHOLD:
            return _IDENT_PICKLE + payload
        return SerializedObject([_IDENT_PICKLE, payload])
    header = b''.join(
        [
            _IDENT_PICKLE5,
            _U32.pack(len(oob)),
            _U64.pack(len(payload)),
            *(_U64.pack(r.nbytes) for r in oob),
        ],
    )
    return SerializedObject([header, payload, *oob])


#: dtype -> its 0x07 code, or ``b''`` when the dtype travels as pickle.
_array_codes: dict[np.dtype, bytes] = {}
#: 0x07 code -> the dtype it names (valid codes only).
_code_dtypes: dict[bytes, np.dtype] = {}


def _code_dtype(code: bytes) -> 'np.dtype | None':
    """The dtype a 0x07 code names, or ``None`` when it names none exactly.

    A code is accepted only when it has the shape of a simple dtype's
    ``.str`` (byte order, type letter, size, optional datetime unit), so
    NumPy's comma and tuple dtype grammars never see wire input;
    ``np.dtype(code).str`` gives it back; and the dtype has no fields, no
    subarray, no object and an itemsize above 0.  Accepted codes go into
    ``_code_dtypes``, which readers consult first; dtype codes are
    unbounded in variety, so that memo starts over when it fills.
    """
    if _CODE_SHAPE.fullmatch(code) is None:
        return None
    text = code.decode('ascii')
    try:
        dtype = np.dtype(text)
    except (TypeError, ValueError):
        return None
    if (
        dtype.str != text
        or dtype.fields is not None
        or dtype.subdtype is not None
        or dtype.hasobject
        or dtype.itemsize == 0
    ):
        return None
    if len(_code_dtypes) >= _ARRAY_MEMO_SIZE:
        _code_dtypes.clear()
    _code_dtypes[code] = dtype
    return dtype


def _array_code(dtype: np.dtype) -> bytes:
    """``dtype``'s 0x07 code, or ``b''`` when the code would not rebuild it.

    ``dtype`` has no metadata (which dtype equality, and so the
    ``_array_codes`` memo this fills, ignores).
    """
    code = dtype.str.encode()
    rebuilt = _code_dtype(code)
    if rebuilt is None or rebuilt != dtype:
        code = b''
    if len(_array_codes) >= _ARRAY_MEMO_SIZE:
        _array_codes.clear()
    _array_codes[dtype] = code
    return code


def _array_payload(arr: np.ndarray) -> 'bytes | SerializedObject':
    """Serialize an ndarray as a 0x07 head + its data buffer.

    Arrays with fewer data bytes than the small-frame threshold are joined
    into one compact frame (the copy is cheaper than segment bookkeeping at
    that scale); larger arrays keep a zero-copy view of their buffer.
    Arrays whose dtype has no exact code take the sieved pickle route.
    """
    dtype = arr.dtype
    code = _array_codes.get(dtype) if dtype.metadata is None else b''
    if code is None:
        code = _array_code(dtype)
    if not code:
        if dtype.hasobject:
            raise SerializationError(
                'object-dtype NumPy arrays cannot use the array fast path '
                '(allow_pickle is disabled); wrap the data in a picklable '
                'container instead',
            )
        return _pickle_payload(arr)
    flags = arr.flags
    if not (flags.c_contiguous or flags.f_contiguous):
        arr = np.ascontiguousarray(arr)
        flags = arr.flags
    shape = arr.shape
    ndim = len(shape)
    head = (
        _ARRAY_HEAD.pack(_IDENT_ARRAY[0], len(code), ndim, not flags.c_contiguous)
        + code
        + _ARRAY_DIMS[ndim].pack(*shape)
    )
    # 'A' keeps whichever memory order the array already has, so the flat
    # view aliases the array's buffer instead of copying it.
    flat = arr.ravel('A')
    try:
        raw = memoryview(flat).cast('B')
    except ValueError:
        # datetime64/timedelta64 export no buffer; their bytes do.
        raw = memoryview(flat.view(np.uint8))
    if arr.nbytes < _SMALL_FRAME_THRESHOLD:
        return head + raw
    return SerializedObject([head, raw])


def _custom_payload(obj: Any) -> 'bytes | SerializedObject':
    """Serialize ``obj`` through its registered custom serializer (0x04)."""
    custom = default_registry.find(obj)
    if custom is None:
        # The registration disappeared between classification and use (the
        # version guard makes this a one-call race at most): re-classify.
        _routes.pop(type(obj), None)
        return serialize(obj)
    name, serializer, _ = custom
    try:
        payload = serializer(obj)
    except Exception as e:  # noqa: BLE001
        raise SerializationError(
            f'Registered serializer {name!r} failed for '
            f'{type(obj).__name__}: {e}',
        ) from e
    if not isinstance(payload, (bytes, bytearray, memoryview)):
        raise SerializationError(
            f'Registered serializer {name!r} must return bytes, got '
            f'{type(payload).__name__}',
        )
    head = _IDENT_CUSTOM + name.encode('utf-8') + b'\n'
    if len(payload) < _SMALL_FRAME_THRESHOLD:
        return head + bytes(payload)
    return SerializedObject([head, payload])


def serialize(obj: Any) -> 'bytes | SerializedObject':
    """Serialize ``obj`` using the default scheme.

    Sub-threshold payloads (see :func:`small_frame_threshold`) return a
    compact contiguous ``bytes`` frame; everything else returns a
    :class:`SerializedObject` whose segments alias ``obj``'s memory where
    possible.  ``bytes(result)`` yields the contiguous wire bytes for
    non-buffer-aware consumers in either case.

    Raises:
        SerializationError: if the object cannot be serialized (e.g. pickling
            fails for an unpicklable object).
    """
    global _routes_version
    registry_version = default_registry.version
    if registry_version != _routes_version:
        _routes.clear()
        _routes_version = registry_version
    tp = type(obj)
    route = _routes.get(tp)
    if route is None:
        route = _classify(obj)
        _routes[tp] = route
    if route == _R_PICKLE:
        # Optimistic: no buffer_callback, matching the minimal legacy work.
        try:
            payload = _pickle_dumps(obj, protocol=_PICKLE_PROTOCOL)
        except Exception as e:  # noqa: BLE001
            raise SerializationError(
                f'Object of type {tp.__name__} could not be pickled: {e}',
            ) from e
        if len(payload) < _SMALL_FRAME_THRESHOLD:
            return _IDENT_PICKLE + payload
        # Overflow: this type carries real data — permanently upgrade it to
        # the sieved route so large buffers travel out-of-band (zero-copy)
        # from now on, and re-pickle this instance that way too.
        _routes[tp] = _R_PICKLE_SIEVED
        route = _R_PICKLE_SIEVED
    if route == _R_PICKLE_SIEVED:
        try:
            return _pickle_payload(obj)
        except SerializationError:
            raise
        except Exception as e:  # noqa: BLE001
            raise SerializationError(
                f'Object of type {tp.__name__} could not be pickled: {e}',
            ) from e
    if route == _R_BYTES:
        if len(obj) < _SMALL_FRAME_THRESHOLD:
            return _IDENT_BYTES + obj
        return SerializedObject([_IDENT_BYTES, obj])
    if route == _R_STR:
        encoded = obj.encode('utf-8')
        if len(encoded) < _SMALL_FRAME_THRESHOLD:
            return _IDENT_STR + encoded
        return SerializedObject([_IDENT_STR, encoded])
    if route == _R_NDARRAY:
        return _array_payload(obj)
    if route == _R_BYTEVIEW:
        # Zero-copy on the large path: the segment aliases the caller's
        # buffer until the connector writes (or freezes) it.  Views that
        # cannot be cast to a flat byte view (anything not C-contiguous)
        # are materialized here.
        if isinstance(obj, memoryview) and not obj.c_contiguous:
            obj = bytes(obj)
            if len(obj) < _SMALL_FRAME_THRESHOLD:
                return _IDENT_BYTES + obj
            return SerializedObject([_IDENT_BYTES, obj])
        if len(obj) < _SMALL_FRAME_THRESHOLD:
            return _IDENT_BYTES + bytes(obj)
        return SerializedObject([_IDENT_BYTES, obj])
    if route == _R_PROXY:
        payload = _pickle_dumps(obj, protocol=_PICKLE_PROTOCOL)
        if len(payload) < _SMALL_FRAME_THRESHOLD:
            return _IDENT_PICKLE + payload
        return SerializedObject([_IDENT_PICKLE, payload])
    return _custom_payload(obj)


# --------------------------------------------------------------------------- #
# Deserialization
# --------------------------------------------------------------------------- #
class _FieldList(tuple):
    """A structured dtype's field list, frozen for the header cache."""


def _freeze(descr: Any) -> Any:
    """``descr`` with every list made a :class:`_FieldList` (hashable, immutable)."""
    if isinstance(descr, list):
        return _FieldList(_freeze(item) for item in descr)
    if isinstance(descr, tuple):
        return tuple(_freeze(item) for item in descr)
    return descr


def _thaw(descr: Any) -> Any:
    """Inverse of :func:`_freeze`: the ``descr`` NumPy's header held."""
    if isinstance(descr, _FieldList):
        return [_thaw(item) for item in descr]
    if isinstance(descr, tuple):
        return tuple(_thaw(item) for item in descr)
    return descr


@functools.lru_cache(maxsize=256)
def _npy_header_fields(header_bytes: bytes) -> 'tuple[Any, bool, tuple]':
    """``(descr, fortran_order, shape)`` of a ``.npy`` header dict.

    ``ast.literal_eval`` compiles the header text on every call, which
    cost more than the rest of deserialising a 16 KB array; a stream of
    same-shaped arrays repeats the same header, so the literal parse is
    memoised by the header bytes.  Only immutable values are cached: the
    dtype is built by the caller on every call, because a dtype can be
    changed in place (``arr.dtype.names = ...``) and a cached one would
    carry that change into every later array.
    """
    header = ast.literal_eval(header_bytes.decode('latin1'))
    return (
        _freeze(header['descr']),
        bool(header.get('fortran_order')),
        tuple(header['shape']),
    )


def _parse_npy_header(
    view: memoryview,
) -> 'tuple[np.dtype, tuple, str, int] | None':
    """Parse a ``.npy`` magic + format header held at the start of ``view``.

    Returns ``(dtype, shape, order, data_start)`` or ``None`` when the
    container is not a known ``.npy`` version (callers fall back to NumPy's
    own reader).

    Raises:
        SerializationError: for object-dtype arrays (pickled payloads are
            never loaded from the array fast path).
    """
    if bytes(view[:6]) != b'\x93NUMPY':
        return None
    major = view[6]
    if major == 1:
        (hlen,) = struct.unpack('<H', view[8:10])
        data_start = 10 + hlen
        header_bytes = bytes(view[10:data_start])
    elif major in (2, 3):
        (hlen,) = struct.unpack('<I', view[8:12])
        data_start = 12 + hlen
        header_bytes = bytes(view[12:data_start])
    else:
        return None
    descr, fortran_order, shape = _npy_header_fields(header_bytes)
    descr = _thaw(descr)
    try:
        dtype = np.lib.format.descr_to_dtype(descr)
    except AttributeError:  # pragma: no cover - very old numpy
        dtype = np.dtype(descr)
    if dtype.hasobject:
        raise SerializationError(
            'refusing to load an object-dtype array (allow_pickle disabled)',
        )
    return dtype, shape, 'F' if fortran_order else 'C', data_start


def _array_over(
    data: memoryview,
    dtype: np.dtype,
    shape: tuple,
    order: str,
) -> np.ndarray:
    """Zero-copy array over ``data``, which must hold exactly its bytes.

    The array is always read-only: it aliases storage it does not own
    (received buffers, mmapped files, an in-process producer's memory), so
    mutating a fetched array would otherwise silently corrupt shared or
    producer state on some channels and not others.  Consumers that need
    to mutate call ``np.copy``.

    Raises:
        SerializationError: when ``data`` is not ``prod(shape) x itemsize``
            bytes, or NumPy refuses the shape.
    """
    try:
        count = math.prod(shape)
        if count * dtype.itemsize != len(data):
            raise SerializationError(
                f'array frame holds {len(data)} data bytes, its head '
                f'describes {count} x {dtype.itemsize}',
            )
        arr = np.frombuffer(data.toreadonly(), dtype)
        if len(shape) != 1:
            arr = arr.reshape(shape, order=order)
    except (TypeError, ValueError, OverflowError) as e:
        raise SerializationError(f'corrupt array frame: {e}') from None
    return arr


def _read_array(
    frame: 'bytes | memoryview',
    data: 'memoryview | None' = None,
) -> np.ndarray:
    """Parse the 0x07 frame whose head starts ``frame`` (identifier included).

    The data is ``data`` when given (the head segment of a two-piece frame
    is then exactly the head), else the rest of ``frame``, a flat view.

    Raises:
        SerializationError: for a truncated head, ``ndim`` above 64, a
            fortran flag other than 0 or 1, a dtype code that does not name
            a dtype exactly (see :func:`_code_dtype`), or data that is not
            ``prod(dims) x itemsize`` bytes.
    """
    size = len(frame)
    if size < 4:
        raise SerializationError('truncated array frame head')
    code_len, ndim, fortran = _ARRAY_FIELDS.unpack_from(frame, 1)
    dims_at = 4 + code_len
    data_at = dims_at + 8 * ndim
    if ndim > _ARRAY_MAX_NDIM or fortran > 1:
        raise SerializationError(
            f'corrupt array frame head (ndim {ndim}, fortran {fortran})',
        )
    if size < data_at:
        raise SerializationError('truncated array frame head')
    code = bytes(frame[4:dims_at])
    dtype = _code_dtypes.get(code)
    if dtype is None:
        dtype = _code_dtype(code)
        if dtype is None:
            raise SerializationError(f'unsupported array dtype code {code!r}')
    shape = _ARRAY_DIMS[ndim].unpack_from(frame, dims_at)
    if data is None:
        data = frame[data_at:]
    return _array_over(data, dtype, shape, 'F' if fortran else 'C')


def _read_npy(view: memoryview) -> np.ndarray:
    """Parse a ``.npy`` payload from ``view`` without copying the array data."""
    parsed = _parse_npy_header(view)
    if parsed is None:
        # Unknown container: fall back to NumPy's own reader (one copy).
        return np.load(io.BytesIO(bytes(view)), allow_pickle=False)
    dtype, shape, order, data_start = parsed
    return _array_over(view[data_start:], dtype, shape, order)


def _read_pickle5(payload: memoryview) -> Any:
    """Decode the 0x06 layout: sliced views feed ``pickle.loads`` buffers."""
    (nbuffers,) = _U32.unpack(payload[:4])
    (pickle_len,) = _U64.unpack(payload[4:12])
    lens_end = 12 + 8 * nbuffers
    lengths = [
        _U64.unpack(payload[12 + 8 * i:20 + 8 * i])[0] for i in range(nbuffers)
    ]
    offset = lens_end + pickle_len
    pickled = payload[lens_end:offset]
    buffers: list[memoryview] = []
    for length in lengths:
        # toreadonly: reconstructed arrays alias storage they do not own,
        # so they surface uniformly read-only (same rule as _array_over).
        buffers.append(payload[offset:offset + length].toreadonly())
        offset += length
    return pickle.loads(pickled, buffers=buffers)


def _find_newline(view: memoryview) -> int:
    """Index of the first ``\\n`` in ``view`` (searched in small chunks)."""
    chunk_size = 4096
    for start in range(0, len(view), chunk_size):
        idx = bytes(view[start:start + chunk_size]).find(b'\n')
        if idx >= 0:
            return start + idx
    return -1


def _deserialize_view(view: memoryview) -> Any:
    """Deserialize a contiguous wire payload held in a flat byte view."""
    identifier = view[0]
    if identifier == _IDENT_ARRAY[0]:
        return _read_array(view)
    payload = view[1:]
    if identifier == _IDENT_BYTES[0]:
        return bytes(payload)
    if identifier == _IDENT_STR[0]:
        return str(payload, 'utf-8')
    if identifier == _IDENT_NUMPY[0]:
        return _read_npy(payload)
    if identifier == _IDENT_CUSTOM[0]:
        sep = _find_newline(payload)
        if sep < 0:
            raise SerializationError(
                'custom-serializer payload is missing its name delimiter',
            )
        name = bytes(payload[:sep]).decode('utf-8')
        entry = default_registry.get(name)
        if entry is None:
            raise SerializationError(
                f'No serializer registered under name {name!r}; it must be '
                'registered in the consuming process as well',
            )
        _, _, deserializer = entry
        try:
            # Registered deserializers are documented to take bytes.
            return deserializer(bytes(payload[sep + 1:]))
        except Exception as e:  # noqa: BLE001
            raise SerializationError(
                f'Registered deserializer {name!r} failed: {e}',
            ) from e
    if identifier == _IDENT_PICKLE[0]:
        try:
            return pickle.loads(payload)
        except Exception as e:  # noqa: BLE001
            raise SerializationError(f'Unpickling failed: {e}') from e
    if identifier == _IDENT_PICKLE5[0]:
        try:
            return _read_pickle5(payload)
        except Exception as e:  # noqa: BLE001
            raise SerializationError(f'Unpickling failed: {e}') from e
    raise SerializationError(
        f'Unknown serialization identifier byte: {bytes([identifier])!r}',
    )


def _deserialize_structured(data: SerializedObject) -> Any:
    """Fast paths over an intact segment structure (no join, no copies).

    Fires when ``data`` still has the exact segment shape :func:`serialize`
    produced — the in-process round trip and buffer-aware connectors that
    store segments as-is.  Any other shape falls back to the contiguous
    reader over the joined bytes.
    """
    pieces = data.pieces
    if not pieces:
        raise SerializationError('cannot deserialize an empty byte string')
    head = pieces[0]
    if not isinstance(head, (bytes, bytearray)):
        head = memoryview(head)
    if len(pieces) == 2 and len(head) == 1:
        if head[0] == _IDENT_BYTES[0]:
            payload = pieces[1]
            return payload if isinstance(payload, bytes) else bytes(payload)
        if head[0] == _IDENT_STR[0]:
            return str(pieces[1], 'utf-8')
        if head[0] == _IDENT_PICKLE[0]:
            try:
                return pickle.loads(pieces[1])
            except Exception as e:  # noqa: BLE001
                raise SerializationError(f'Unpickling failed: {e}') from e
    if (
        len(pieces) == 2
        and len(head) >= 4
        and head[0] == _IDENT_ARRAY[0]
        and len(head) == 4 + head[1] + 8 * head[2]
    ):
        # The head segment is exactly the 0x07 head; the data is pieces[1].
        return _read_array(head, _flat_view(pieces[1]))
    if len(head) >= 1 and head[0] == _IDENT_PICKLE5[0] and len(pieces) >= 3:
        # head = ident + counts/lengths; pieces[1] = pickle; rest = buffers.
        try:
            pickled = pieces[1]
            buffers = [
                (p if isinstance(p, memoryview) else memoryview(p)).toreadonly()
                for p in pieces[2:]
            ]
            return pickle.loads(pickled, buffers=buffers)
        except Exception as e:  # noqa: BLE001
            raise SerializationError(f'Unpickling failed: {e}') from e
    joined = bytes(data)
    if not joined:
        raise SerializationError('cannot deserialize an empty byte string')
    return _deserialize_view(_flat_view(joined))


def _flat_view(data: Any) -> memoryview:
    view = data if isinstance(data, memoryview) else memoryview(data)
    if view.format != 'B' or view.ndim != 1:
        view = view.cast('B')
    return view


def deserialize(data: 'BytesLike | SerializedObject') -> Any:
    """Inverse of :func:`serialize`.

    Accepts ``bytes``, ``bytearray``, ``memoryview`` (or any contiguous
    buffer such as an ``mmap``) and :class:`SerializedObject` without
    materializing large input; big payloads are parsed as views while
    sub-threshold ``bytes`` frames take a slice-based fast path.

    Raises:
        SerializationError: if ``data`` is not a payload produced by
            :func:`serialize` or the payload cannot be decoded.
    """
    if type(data) is bytes:
        n = len(data)
        if n == 0:
            raise SerializationError('cannot deserialize an empty byte string')
        if n <= _SMALL_FRAME_THRESHOLD + 1:
            # Small frames: plain slices beat memoryview indirection here.
            ident = data[0]
            if ident == 1:
                return data[1:]
            if ident == 2:
                return data[1:].decode('utf-8')
            if ident == 5:
                try:
                    return _pickle_loads(data[1:])
                except Exception as e:  # noqa: BLE001
                    raise SerializationError(f'Unpickling failed: {e}') from e
        return _deserialize_view(_flat_view(data))
    if isinstance(data, SerializedObject):
        return _deserialize_structured(data)
    try:
        view = _flat_view(data)
    except TypeError:
        raise SerializationError(
            f'deserialize expects bytes, got {type(data).__name__}',
        ) from None
    if len(view) == 0:
        raise SerializationError('cannot deserialize an empty byte string')
    return _deserialize_view(view)
