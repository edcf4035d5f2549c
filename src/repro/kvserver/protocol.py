"""Wire protocol shared by the SimKV server and client.

Messages are framed as::

    uint32 pickle_len | uint32 n_buffers | n_buffers x uint64 buffer_len
    pickle bytes | buffer 0 | ... | buffer n-1

The pickle section is produced with protocol 5 and a ``buffer_callback``:
any :class:`pickle.PickleBuffer` inside the message (payload segments of a
``SET``/``MSET``, response values of a ``GET``/``MGET``) travels *out of
band* — its bytes are never copied into the pickle stream.  The sender
pushes header, pickle and raw buffers through one scatter/gather
(``sendmsg``) loop; the receiver gives each buffer memory of its own and
hands the views to ``pickle.loads``.  A buffer of at least
:data:`READ_AHEAD_BYTES` is received straight from the socket by
``recv_into`` into memory that is *not* zero-filled first (the kernel
writes every byte of it before the frame can complete); a smaller one is a
``bytearray`` filled from the read-ahead scratch.

Requests are ``(request_id, command, key, value)`` tuples; responses are
``(request_id, status, payload)`` tuples where ``status`` is ``'ok'`` or
``'error'``; the server writes nothing else.  Request ids let many
requests share one connection: a pipelined client tags each request and
whichever thread is receiving matches responses back to waiters, so the
transport no longer serializes round trips.  The commands are the keys of the server's dispatch table
(:mod:`repro.kvserver.server`), the one list of them.
Pickle is acceptable here because both ends are this library (SimKV is an
internal substrate, not an internet-facing service).

There is one frame reader, :class:`StreamDecoder`: an incremental state
machine behind a fixed read-ahead buffer, so a small frame costs one
``recv``, with two entry points — :meth:`StreamDecoder.read_from` reads a
non-blocking socket for the event-loop server until one receive comes back
short (the selector is level-triggered, so whatever arrived after that
receive is reported again), and
:meth:`StreamDecoder.read_message` blocks for one frame on whichever client
thread holds the connection's receive role (see
:mod:`repro.kvserver.client`).  A decoder belongs to one socket for that
socket's life.  A frame that lies wholly in the read-ahead is decoded in
one step, with one :func:`_check_frame`; the sender gets the frame's length
with its segments (:func:`_encode_frame`), so a ``sendmsg`` that wrote it
all needs no further look at them.
"""
from __future__ import annotations

import pickle
import socket
import struct
from typing import Any

import numpy

from repro.serialize.buffers import vectored_write

__all__ = [
    'MAX_FRAME_BYTES',
    'READ_AHEAD_BYTES',
    'StreamDecoder',
    'UNKNOWN_MEMBER',
    'encode_message',
    'send_message',
]

#: Prefix of the error reply to a ``GROUP_HEARTBEAT`` from a member whose
#: lease expired (or that never joined).  The server writes it and the
#: client recognises it — the reply is a plain string on the wire, so this
#: text is the "member expired" signal and must not change.
UNKNOWN_MEMBER = 'unknown member'

_HEADER = struct.Struct('>II')
_HEADER_SIZE = _HEADER.size
#: The header of a frame with one buffer, its length included.
_HEADER_1 = struct.Struct('>IIQ')
_U64 = struct.Struct('>Q')
_U64_SIZE = _U64.size

#: Defensive bound on one frame (pickle stream + out-of-band buffers).
#: Real payloads are far smaller; without it a corrupt or desynchronized
#: stream could drive multi-GB allocations straight from wire headers.
MAX_FRAME_BYTES = 1 << 34  # 16 GiB
_MAX_BUFFERS = 1 << 20

#: Size of a :class:`StreamDecoder`'s receive scratch: the most one small
#: ``recv`` can bring, and the threshold above which the missing part of a
#: section is received in place instead (so only the ends of a bulk
#: payload, less than this much each, are ever copied).
READ_AHEAD_BYTES = 1 << 16


def _section_buffer(size: int) -> 'bytearray | memoryview':
    """Memory for a frame section whose size the wire declared.

    The pickle section and every out-of-band buffer come from here, always
    after :func:`_check_frame` has accepted the frame's dimensions.  Below
    :data:`READ_AHEAD_BYTES` the section is filled from the scratch: a
    ``bytearray``.  At or above it, the section can be received in place,
    where a zero-fill would only be overwritten by ``recv_into``: an
    uninitialised ``numpy`` allocation instead.  No byte of it reaches a
    caller unwritten, because a section completes only once it is full and
    a frame cut short is discarded.
    """
    if size < READ_AHEAD_BYTES:
        return bytearray(size)
    return memoryview(numpy.empty(size, numpy.uint8))


def _check_frame(pickle_len: int, n_buffers: int, buffer_bytes: int = 0) -> None:
    """Reject frame dimensions no legitimate sender produces."""
    if (
        pickle_len == 0
        or n_buffers > _MAX_BUFFERS
        or pickle_len + buffer_bytes > MAX_FRAME_BYTES
    ):
        raise ValueError(
            f'corrupt or oversized SimKV frame: pickle_len={pickle_len}, '
            f'n_buffers={n_buffers}, buffer_bytes={buffer_bytes}',
        )


def _encode_frame(message: Any) -> tuple[list, int]:
    """Pickle ``message`` (buffers out-of-band): wire-order segments and their size.

    ``PickleBuffer``-wrapped segments inside ``message`` are *aliased*, not
    copied: the returned list holds views over the caller's memory, ready
    for one scatter/gather send (or an event loop's outgoing queue).  The
    size is the frame's length in bytes, so a sender can tell a complete
    send from a partial one without walking the segments.
    """
    pickle_buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(
        message, protocol=5, buffer_callback=pickle_buffers.append,
    )
    pickle_len = len(payload)
    if not pickle_buffers:
        return [_HEADER.pack(pickle_len, 0), payload], _HEADER_SIZE + pickle_len
    # Out-of-band buffers come from segments_of()/PickleBuffer wrapping of
    # flat byte views, so raw() cannot fail with BufferError here (pickle
    # itself rejects non-contiguous PickleBuffers even in-band).
    if len(pickle_buffers) == 1:
        raw = pickle_buffers[0].raw()
        return (
            [_HEADER_1.pack(pickle_len, 1, raw.nbytes), payload, raw],
            _HEADER_1.size + pickle_len + raw.nbytes,
        )
    raws = [b.raw() for b in pickle_buffers]
    lengths = [r.nbytes for r in raws]
    header = struct.pack(f'>II{len(lengths)}Q', pickle_len, len(lengths), *lengths)
    return [header, payload, *raws], len(header) + pickle_len + sum(lengths)


def encode_message(message: Any) -> list:
    """Pickle ``message`` (buffers out-of-band) into wire-order segments.

    The segments of :func:`_encode_frame`, without the frame's length.
    """
    return _encode_frame(message)[0]


def send_message(sock: socket.socket, message: Any) -> None:
    """Pickle ``message`` (buffers out-of-band) and send it as one frame.

    Scatter/gather writes, partial sends handled.  The client and the
    server queue :func:`encode_message` segments themselves; this is the
    blocking one-liner for raw-socket tests and baselines.
    """
    vectored_write(sock.sendmsg, encode_message(message))


# --------------------------------------------------------------------------- #
# Incremental decoding
# --------------------------------------------------------------------------- #
_STAGE_HEADER = 0
_STAGE_LENGTHS = 1
_STAGE_PICKLE = 2
_STAGE_BUFFERS = 3

_NO_MESSAGE = object()


class StreamDecoder:
    """Incremental frame decoder, the only reader of SimKV frames.

    Every receive lands in one fixed scratch buffer of
    :data:`READ_AHEAD_BYTES`, so a single ``recv_into`` brings a whole small
    frame — and any pipelined frames behind it.  A frame that lies wholly
    in the scratch is decoded in one step, with one :func:`_check_frame`.
    Otherwise its sections (header, buffer-length table, pickle bytes, each
    out-of-band buffer) are filled from the scratch, one allocation per
    section, no join; a section that still misses at least a scratch-full
    is received straight into its own memory (see :func:`_section_buffer`),
    so the body of a bulk payload is never copied nor zero-filled.  Those
    are the only two ways a frame is decoded.  Decoding is restartable at
    any byte boundary, so a single event-loop thread can interleave many
    connections.

    A decoder owns its socket's read-ahead: keep **one decoder per socket**
    for the socket's whole life.  A throwaway ``StreamDecoder()`` per frame
    drops whatever arrived behind that frame.
    """

    __slots__ = (
        '_scratch', '_start', '_end',
        '_stage', '_target', '_filled',
        '_pickle', '_buffers', '_buffer_index',
    )

    def __init__(self) -> None:
        #: Received bytes not yet decoded are ``_scratch[_start:_end]``.
        self._scratch = memoryview(bytearray(READ_AHEAD_BYTES))
        self._start = self._end = 0
        #: The section being filled; ``None`` between frames.
        self._target: memoryview | None = None
        self._stage = _STAGE_HEADER
        self._filled = 0
        self._pickle: bytearray | memoryview | None = None
        self._buffers: list[bytearray | memoryview] = []
        self._buffer_index = 0

    def _begin(self, stage: int, target: 'bytearray | memoryview') -> None:
        self._stage = stage
        self._target = memoryview(target)
        self._filled = 0

    def _next_buffer_stage(self) -> Any:
        """Advance to the next non-empty out-of-band buffer (or finish)."""
        while self._buffer_index < len(self._buffers):
            buffer = self._buffers[self._buffer_index]
            if len(buffer):
                self._begin(_STAGE_BUFFERS, buffer)
                return _NO_MESSAGE
            self._buffer_index += 1
        return self._finish()

    def _finish(self) -> Any:
        assert self._pickle is not None
        message = pickle.loads(self._pickle, buffers=self._buffers)
        self._target = self._pickle = None
        self._buffers = []
        return message

    def _advance(self) -> Any:
        """Handle a completely filled section; returns a message when done."""
        if self._stage == _STAGE_HEADER:
            pickle_len, n_buffers = _HEADER.unpack(self._target)
            _check_frame(pickle_len, n_buffers)
            self._pickle = _section_buffer(pickle_len)
            if n_buffers:
                self._begin(_STAGE_LENGTHS, bytearray(_U64.size * n_buffers))
            else:
                self._begin(_STAGE_PICKLE, self._pickle)
            return _NO_MESSAGE
        if self._stage == _STAGE_LENGTHS:
            assert self._target is not None and self._pickle is not None
            lengths = [length for (length,) in _U64.iter_unpack(self._target)]
            _check_frame(len(self._pickle), len(lengths), sum(lengths))
            self._buffers = [_section_buffer(length) for length in lengths]
            self._begin(_STAGE_PICKLE, self._pickle)
            return _NO_MESSAGE
        if self._stage == _STAGE_PICKLE:
            self._buffer_index = 0
            return self._next_buffer_stage()
        # _STAGE_BUFFERS: current buffer filled, move to the next one.
        self._buffer_index += 1
        return self._next_buffer_stage()

    def _decode(self) -> Any:
        """Decode from the bytes already received.

        Returns the next message, or ``_NO_MESSAGE`` once the scratch is
        used up and the frame still misses bytes.  Between frames, a frame
        that lies wholly in the scratch is decoded in one step; any other
        goes section by section from here on.
        """
        if self._target is not None:
            return self._decode_sections()
        scratch, start, end = self._scratch, self._start, self._end
        if end - start >= _HEADER_SIZE:
            pickle_len, n_buffers = _HEADER.unpack_from(scratch, start)
            body = start + _HEADER_SIZE + _U64_SIZE * n_buffers
            offset = body + pickle_len
            if offset <= end:
                if n_buffers > 1:
                    _check_frame(pickle_len, n_buffers)  # before a table that long
                lengths = struct.unpack_from(f'>{n_buffers}Q', scratch, start + _HEADER_SIZE)
                last = offset + sum(lengths)
                _check_frame(pickle_len, n_buffers, last - offset)
                if last <= end:
                    # Copies: the message must not alias the scratch.
                    buffers = []
                    for length in lengths:
                        buffers.append(bytearray(scratch[offset:offset + length]))
                        offset += length
                    message = pickle.loads(scratch[body:body + pickle_len], buffers=buffers)
                    self._start = last
                    return message
        if start == end:
            return _NO_MESSAGE
        self._begin(_STAGE_HEADER, bytearray(_HEADER_SIZE))
        return self._decode_sections()

    def _decode_sections(self) -> Any:
        """Fill the frame's sections from the scratch, one after another.

        Returns the message once its last section is full, or
        ``_NO_MESSAGE`` once the scratch is used up.
        """
        scratch = self._scratch
        while True:
            target, filled = self._target, self._filled
            assert target is not None
            missing = len(target) - filled
            if missing:
                start = self._start
                taken = min(missing, self._end - start)
                if taken:
                    target[filled:filled + taken] = scratch[start:start + taken]
                    self._filled = filled + taken
                    self._start = start + taken
                if taken < missing:
                    return _NO_MESSAGE
            message = self._advance()
            if message is not _NO_MESSAGE:
                return message

    def _receive_in_place(self, sock: socket.socket) -> tuple[int, bool]:
        """One ``recv_into`` the current section's own memory.

        For a section that still misses at least a scratch-full: the bytes
        can then only be that section's.  Every other receive lands in the
        scratch, which :meth:`_decode` has used up first.  Returns the byte
        count and whether the receive was short (brought less than it had
        room for: the kernel had no more to give).
        """
        assert self._target is not None
        missing = len(self._target) - self._filled
        received = sock.recv_into(self._target[self._filled:])
        self._filled += received
        return received, received < missing

    def read_message(
        self,
        sock: socket.socket,
        on_bytes: Any = None,
    ) -> Any | None:
        """Blocking receive of one message; ``None`` on a closed peer.

        ``on_bytes(n)`` is invoked after every successful ``recv_into``
        that did not complete the frame, so a caller can observe
        byte-level progress (e.g. to distinguish a large transfer that is
        still streaming from a dead connection); the receive that does
        complete it returns the message instead.
        """
        received = 0
        while True:
            if self._start != self._end or self._target is not None:
                message = self._decode()
                if message is not _NO_MESSAGE:
                    return message
                if received and on_bytes is not None:
                    on_bytes(received)
            target = self._target
            if target is not None and len(target) - self._filled >= READ_AHEAD_BYTES:
                received = self._receive_in_place(sock)[0]
            else:
                received = sock.recv_into(self._scratch)
                self._start, self._end = 0, received
            if received == 0:
                return None

    def read_from(self, sock: socket.socket) -> tuple[list[Any], bool]:
        """Read what ``sock`` has ready; returns ``(messages, closed)``.

        For a non-blocking socket behind a *level-triggered* selector.
        Receives until one receive comes back short (or would block), so a
        small request costs one ``recv_into``: bytes the kernel got after
        that receive keep the socket readable, and the selector reports it
        again.  ``messages`` holds every frame the received bytes
        completed; ``closed`` is True when the peer closed or the socket
        failed (partially received frames are then discarded).
        """
        messages: list[Any] = []
        short = False
        while True:
            while self._start != self._end or self._target is not None:
                message = self._decode()
                if message is _NO_MESSAGE:
                    break
                messages.append(message)
            if short:
                return messages, False
            target = self._target
            try:
                if target is not None and len(target) - self._filled >= READ_AHEAD_BYTES:
                    received, short = self._receive_in_place(sock)
                else:
                    received = sock.recv_into(self._scratch)
                    self._start, self._end = 0, received
                    short = received < READ_AHEAD_BYTES
            except (BlockingIOError, InterruptedError):
                return messages, False
            except OSError:
                return messages, True
            if received == 0:
                return messages, True
