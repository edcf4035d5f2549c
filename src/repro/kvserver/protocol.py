"""Wire protocol shared by the SimKV server and client.

Messages are framed as::

    uint32 pickle_len | uint32 n_buffers | n_buffers x uint64 buffer_len
    pickle bytes | buffer 0 | ... | buffer n-1

The pickle section is produced with protocol 5 and a ``buffer_callback``:
any :class:`pickle.PickleBuffer` inside the message (payload segments of a
``SET``/``MSET``, response values of a ``GET``/``MGET``) travels *out of
band* — its bytes are never copied into the pickle stream.  The sender
pushes header, pickle and raw buffers through one scatter/gather
(``sendmsg``) loop; the receiver gives each buffer a fresh ``bytearray``
(a bulk one is filled straight from the socket by ``recv_into``) and hands
the views to ``pickle.loads``.

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
socket's life.
"""
from __future__ import annotations

import pickle
import socket
import struct
from typing import Any

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
_U64 = struct.Struct('>Q')

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


def encode_message(message: Any) -> list[memoryview]:
    """Pickle ``message`` (buffers out-of-band) into wire-order segments.

    ``PickleBuffer``-wrapped segments inside ``message`` are *aliased*, not
    copied: the returned list holds views over the caller's memory, ready
    for one scatter/gather send (or an event loop's outgoing queue).
    """
    pickle_buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(
        message, protocol=5, buffer_callback=pickle_buffers.append,
    )
    # Out-of-band buffers come from segments_of()/PickleBuffer wrapping of
    # flat byte views, so raw() cannot fail with BufferError here (pickle
    # itself rejects non-contiguous PickleBuffers even in-band).
    raws = [b.raw() for b in pickle_buffers]
    header = b''.join(
        [
            _HEADER.pack(len(payload), len(raws)),
            *(_U64.pack(r.nbytes) for r in raws),
        ],
    )
    return [memoryview(header), memoryview(payload), *raws]


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
    in the scratch is decoded in one step.  Otherwise its sections (header,
    buffer-length table, pickle bytes, each out-of-band buffer) are filled
    from the scratch, one allocation per section, no join; a section that
    still misses at least a scratch-full is received straight into its own
    ``bytearray``, so the body of a bulk payload is never copied.  Decoding
    is restartable at any byte boundary, so a single event-loop thread can
    interleave many connections.

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
        self._reset()

    def _reset(self) -> None:
        self._stage = _STAGE_HEADER
        self._target = memoryview(bytearray(_HEADER.size))
        self._filled = 0
        self._pickle: bytearray | None = None
        self._buffers: list[bytearray] = []
        self._buffer_index = 0

    def _begin(self, stage: int, size: int) -> None:
        self._stage = stage
        self._target = memoryview(bytearray(size))
        self._filled = 0

    def _next_buffer_stage(self) -> Any:
        """Advance to the next non-empty out-of-band buffer (or finish)."""
        while self._buffer_index < len(self._buffers):
            buffer = self._buffers[self._buffer_index]
            if len(buffer):
                self._stage = _STAGE_BUFFERS
                self._target = memoryview(buffer)
                self._filled = 0
                return _NO_MESSAGE
            self._buffer_index += 1
        return self._finish()

    def _finish(self) -> Any:
        assert self._pickle is not None
        message = pickle.loads(self._pickle, buffers=self._buffers)
        self._reset()
        return message

    def _advance(self) -> Any:
        """Handle a completely filled target; returns a message when done."""
        if self._stage == _STAGE_HEADER:
            pickle_len, n_buffers = _HEADER.unpack(self._target)
            _check_frame(pickle_len, n_buffers)
            self._pickle = bytearray(pickle_len)
            if n_buffers:
                self._begin(_STAGE_LENGTHS, _U64.size * n_buffers)
            else:
                self._stage = _STAGE_PICKLE
                self._target = memoryview(self._pickle)
                self._filled = 0
            return _NO_MESSAGE
        if self._stage == _STAGE_LENGTHS:
            raw = self._target
            lengths = [
                _U64.unpack_from(raw, i * _U64.size)[0]
                for i in range(len(raw) // _U64.size)
            ]
            assert self._pickle is not None
            _check_frame(len(self._pickle), len(lengths), sum(lengths))
            self._buffers = [bytearray(length) for length in lengths]
            self._stage = _STAGE_PICKLE
            self._target = memoryview(self._pickle)
            self._filled = 0
            return _NO_MESSAGE
        if self._stage == _STAGE_PICKLE:
            if self._buffers:
                self._buffer_index = 0
                return self._next_buffer_stage()
            return self._finish()
        # _STAGE_BUFFERS: current buffer filled, move to the next one.
        self._buffer_index += 1
        return self._next_buffer_stage()

    def _whole_frame(self) -> Any:
        """Decode a frame that lies wholly in the scratch, in one step.

        The caller found a complete header at ``_start``.  Returns
        ``_NO_MESSAGE`` (and consumes nothing) when the rest of the frame
        is not all there: it then goes section by section.
        """
        scratch, start, end = self._scratch, self._start, self._end
        pickle_len, n_buffers = _HEADER.unpack_from(scratch, start)
        _check_frame(pickle_len, n_buffers)
        body = start + _HEADER.size + _U64.size * n_buffers
        if body + pickle_len > end:
            return _NO_MESSAGE
        lengths = [
            _U64.unpack_from(scratch, offset)[0]
            for offset in range(start + _HEADER.size, body, _U64.size)
        ]
        buffer_bytes = sum(lengths)
        _check_frame(pickle_len, n_buffers, buffer_bytes)
        offset = body + pickle_len
        if offset + buffer_bytes > end:
            return _NO_MESSAGE
        buffers = []
        for length in lengths:
            # A copy: the message must not alias the scratch.
            buffers.append(bytearray(scratch[offset:offset + length]))
            offset += length
        message = pickle.loads(scratch[body:body + pickle_len], buffers=buffers)
        self._start = offset
        return message

    def _next(self) -> Any:
        """Decode from the bytes already received.

        Returns the next message, or ``_NO_MESSAGE`` once the scratch is
        used up and the current section still misses bytes.
        """
        while True:
            if (
                self._stage == _STAGE_HEADER
                and not self._filled
                and self._end - self._start >= _HEADER.size
            ):
                message = self._whole_frame()
                if message is not _NO_MESSAGE:
                    return message
            missing = len(self._target) - self._filled
            if missing:
                taken = min(missing, self._end - self._start)
                if taken:
                    self._target[self._filled:self._filled + taken] = (
                        self._scratch[self._start:self._start + taken]
                    )
                    self._filled += taken
                    self._start += taken
                if taken < missing:
                    return _NO_MESSAGE
            message = self._advance()
            if message is not _NO_MESSAGE:
                return message

    def _receive(self, sock: socket.socket) -> tuple[int, bool]:
        """One ``recv_into`` (only once :meth:`_next` has emptied the scratch).

        The bytes go to the scratch — whatever they turn out to be — unless
        the current section still misses at least a scratch-full: then they
        can only be that section's, and go straight to its own memory.
        Returns the byte count and whether the receive was short (brought
        less than it had room for: the kernel had no more to give).
        """
        missing = len(self._target) - self._filled
        if missing >= READ_AHEAD_BYTES:
            received = sock.recv_into(self._target[self._filled:])
            self._filled += received
            return received, received < missing
        received = sock.recv_into(self._scratch)
        self._start, self._end = 0, received
        return received, received < READ_AHEAD_BYTES

    def read_message(
        self,
        sock: socket.socket,
        on_bytes: Any = None,
    ) -> Any | None:
        """Blocking receive of one message; ``None`` on a closed peer.

        ``on_bytes(n)`` is invoked after every successful ``recv_into`` so a
        caller can observe byte-level progress (e.g. to distinguish a large
        transfer that is still streaming from a dead connection).
        """
        while True:
            message = self._next()
            if message is not _NO_MESSAGE:
                return message
            received, _short = self._receive(sock)
            if received == 0:
                return None
            if on_bytes is not None:
                on_bytes(received)

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
            while (message := self._next()) is not _NO_MESSAGE:
                messages.append(message)
            if short:
                return messages, False
            try:
                received, short = self._receive(sock)
            except (BlockingIOError, InterruptedError):
                return messages, False
            except OSError:
                return messages, True
            if received == 0:
                return messages, True
