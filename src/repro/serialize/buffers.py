"""Buffer-aware payload container used by the zero-copy data path.

:func:`repro.serialize.serialize` produces a :class:`SerializedObject`: a
small header plus a list of byte segments that *alias* the source object's
memory wherever possible (the raw ``bytes`` payload, a NumPy array's data
buffer, pickle-5 out-of-band buffers).  Every connector writes the
segments directly — scatter/gather socket sends, ``writev`` file writes, or
storing the segments as-is for in-process channels — so a ``put`` never
concatenates the payload into one large intermediate byte string; a
connector that needs contiguous bytes calls :func:`to_bytes` itself.

Legacy code paths keep working: a ``SerializedObject`` joins itself into a
single contiguous byte string on demand (``bytes(obj)``), supports ``len``,
slicing and ``startswith``, and pickles as its joined bytes.  The joined form
is byte-for-byte identical to the pre-buffer wire format, so data written by
either representation deserializes with either reader.

Because segments alias producer memory, a connector that *retains* payloads
in process memory (rather than writing them out) must call :meth:`frozen`
first: mutable segments (``bytearray``, array buffers) are snapshotted while
immutable ``bytes`` segments are kept by reference.
"""
from __future__ import annotations

import os
from typing import Any
from typing import Callable
from typing import Iterable
from typing import Sequence
from typing import Union

BytesLike = Union[bytes, bytearray, memoryview]
"""Contiguous read-only-compatible byte containers accepted on the wire."""

__all__ = [
    'BytesLike',
    'SerializedObject',
    'freeze_payload',
    'payload_nbytes',
    'segments_of',
    'to_bytes',
    'unsent',
    'vectored_write',
    'write_payload_to_path',
    'write_segments',
]


def _as_byte_view(piece: Any) -> memoryview:
    """Return a flat ``uint8`` memoryview of ``piece`` (no copy)."""
    view = piece if isinstance(piece, memoryview) else memoryview(piece)
    if view.format != 'B' or view.ndim != 1:
        view = view.cast('B')
    return view


class SerializedObject:
    """A serialized payload as a header plus zero-copy buffer segments.

    Args:
        pieces: byte-like segments in wire order.  ``bytes`` pieces are kept
            by reference; ``bytearray``/``memoryview`` pieces are wrapped
            without copying (they alias the caller's memory).
    """

    __slots__ = ('_pieces', '_nbytes', '_joined')

    def __init__(self, pieces: Sequence[Any]) -> None:
        self._pieces: tuple[Any, ...] = tuple(pieces)
        self._nbytes: int | None = None
        self._joined: bytes | None = None

    # -- buffer access ---------------------------------------------------- #
    @property
    def pieces(self) -> tuple[Any, ...]:
        """The raw segments as provided (``bytes`` stay ``bytes``)."""
        return self._pieces

    def segments(self) -> list[memoryview]:
        """Flat ``uint8`` memoryviews over every non-empty segment."""
        return [
            view
            for piece in self._pieces
            if len(view := _as_byte_view(piece)) > 0
        ]

    @property
    def nbytes(self) -> int:
        """Total payload size in bytes across all segments."""
        if self._nbytes is None:
            total = 0
            for piece in self._pieces:
                if isinstance(piece, memoryview):
                    total += piece.nbytes
                else:
                    total += len(piece)
            self._nbytes = total
        return self._nbytes

    def __len__(self) -> int:
        return self.nbytes

    # -- materialization (legacy / single-buffer interop) ------------------ #
    def __bytes__(self) -> bytes:
        if self._joined is None:
            if len(self._pieces) == 1 and isinstance(self._pieces[0], bytes):
                self._joined = self._pieces[0]
            else:
                self._joined = b''.join(_as_byte_view(p) for p in self._pieces)
        return self._joined

    def __getitem__(self, item: int | slice) -> int | bytes:
        return bytes(self)[item]

    def startswith(self, prefix: bytes) -> bool:
        """Whether the joined wire bytes start with ``prefix``."""
        return bytes(self)[: len(prefix)] == prefix

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SerializedObject):
            return bytes(self) == bytes(other)
        if isinstance(other, (bytes, bytearray, memoryview)):
            return bytes(self) == bytes(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(bytes(self))

    def __repr__(self) -> str:
        return (
            f'SerializedObject(segments={len(self._pieces)}, '
            f'nbytes={self.nbytes})'
        )

    def __reduce__(self):
        # Pickling materializes: out-of-band segments only help while the
        # payload stays inside this process's zero-copy pipeline.
        return (type(self), ((bytes(self),),))

    def frozen(self) -> 'SerializedObject':
        """Return an equivalent object whose segments own immutable memory.

        ``bytes`` segments are kept by reference (no copy); everything else
        (``bytearray``, array-backed memoryviews, ...) aliases memory the
        producer may mutate after the put, so those are snapshotted.  Used by
        connectors that retain payloads in process memory.
        """
        if all(isinstance(p, bytes) for p in self._pieces):
            return self
        return SerializedObject(
            [p if isinstance(p, bytes) else bytes(p) for p in self._pieces],
        )


# --------------------------------------------------------------------------- #
# Payload helpers shared by Store, connectors and the KV wire protocol
# --------------------------------------------------------------------------- #
def payload_nbytes(data: Any) -> int:
    """Total byte size of a ``BytesLike | SerializedObject`` payload."""
    if isinstance(data, SerializedObject):
        return data.nbytes
    if isinstance(data, memoryview):
        return data.nbytes
    return len(data)


def to_bytes(data: Any) -> bytes:
    """Join ``data`` into one contiguous ``bytes`` (no copy if already bytes)."""
    if isinstance(data, bytes):
        return data
    return bytes(data)


def segments_of(data: Any) -> list[memoryview]:
    """Flat byte segments of a payload, for scatter/gather I/O."""
    if isinstance(data, SerializedObject):
        return data.segments()
    view = _as_byte_view(data)
    return [view] if len(view) else []


def freeze_payload(data: Any) -> 'bytes | SerializedObject':
    """Snapshot a payload for in-process retention.

    Connectors that *keep* the payload in this process's memory (local, DIM
    memory nodes, endpoint storage) must not alias memory the producer can
    mutate after the put.  Immutable ``bytes`` (and ``SerializedObject``
    instances made only of ``bytes`` segments) pass through untouched —
    zero copies; mutable buffers are copied exactly once.
    """
    if isinstance(data, bytes):
        return data
    if isinstance(data, SerializedObject):
        return data.frozen()
    return bytes(data)


try:
    IOV_MAX = os.sysconf('SC_IOV_MAX')
    if IOV_MAX <= 0:  # pragma: no cover - unlimited reported as -1
        IOV_MAX = 1024
except (AttributeError, OSError, ValueError):  # pragma: no cover - non-POSIX
    IOV_MAX = 1024
"""Maximum iovec entries per vectored syscall (``writev``/``sendmsg``)."""


def unsent(segments: Sequence[memoryview], written: int) -> list[memoryview]:
    """What is left of ``segments`` after a vectored write of ``written`` bytes.

    The segment the write stopped inside is re-sliced (a view, no copy);
    an empty list means everything was written.
    """
    for index, segment in enumerate(segments):
        size = len(segment)
        if written < size:
            rest = list(segments[index + 1:])
            return [segment[written:], *rest] if written else [segment, *rest]
        written -= size
    return []


def vectored_write(
    write: 'Callable[[list[memoryview]], int]',
    segments: Iterable[memoryview],
) -> int:
    """Drive a vectored-write syscall until every segment is written.

    ``write`` is the syscall wrapper (``os.writev`` on a fd, ``sendmsg`` on
    a socket); it receives at most ``IOV_MAX`` iovec entries per call and
    returns the number of bytes written.  Partial writes advance across
    segment boundaries (:func:`unsent`), so one multi-segment payload lands
    contiguously without ever being joined in userspace.  Returns total
    bytes written.
    """
    pending = [s for s in segments if len(s)]
    total = 0
    while pending:
        written = write(pending[:IOV_MAX])
        total += written
        pending = unsent(pending, written)
    return total


def write_segments(fd: int, segments: Iterable[memoryview]) -> int:
    """``writev``-style write of every segment to ``fd``; returns bytes written."""
    return vectored_write(lambda bufs: os.writev(fd, bufs), segments)


def write_payload_to_path(path: str, data: Any) -> int:
    """Scatter-write a ``BytesLike | SerializedObject`` payload to ``path``.

    Creates (or truncates) the file and lands the payload's segments with
    :func:`write_segments`; returns the number of bytes written.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        return write_segments(fd, segments_of(data))
    finally:
        os.close(fd)
