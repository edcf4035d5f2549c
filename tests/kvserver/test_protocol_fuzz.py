"""Randomized fuzzing of the SimKV frame decoder.

``StreamDecoder`` decodes whatever the other end of a socket sends — and
since a PS-endpoint is a ``KVServer``, that now includes another *site*.
This suite feeds it well-formed streams cut and split at arbitrary byte
boundaries and streams with damaged headers, and asserts for every draw
that the decoder

* yields exactly the original messages (for a damaged length table: the
  original message with its buffer bytes re-sliced — there is no checksum),
* or raises one of the protocol's decode errors (``DECODE_ERRORS``),
* or reports the stream as closed/incomplete,

and that it never spins (the fake socket has a call budget) and never
asks for more memory than ``_check_frame`` allows (``bytearray`` and the
decoder's section allocator are spied on, with the frame limit lowered so
that "oversized" is cheap).
Every draw runs through both entry points, ``read_from`` (re-polled the
way a level-triggered selector would) and ``read_message``.  The fake
socket also records the views it was handed, which is how the read-ahead
is pinned down: one ``recv_into`` per small frame, bulk bytes received
in place.

Seeded RNG: failures print the seed so any draw reproduces exactly.
"""
from __future__ import annotations

import os
import pickle
import random
import struct

import pytest

from repro.kvserver import protocol
from repro.kvserver.protocol import READ_AHEAD_BYTES
from repro.kvserver.protocol import StreamDecoder
from repro.kvserver.protocol import encode_message

SEED = int(os.environ.get('REPRO_FUZZ_SEED', '20261003'))
DRAWS = int(os.environ.get('REPRO_FUZZ_DRAWS', '40'))

#: What a damaged stream may raise: ``_check_frame``'s ``ValueError`` or
#: the unpickler rejecting a frame whose declared sizes no longer match.
DECODE_ERRORS = (ValueError, pickle.UnpicklingError, EOFError)

#: Frame limits while fuzzing (installed by the ``allocations`` fixture).
LIMIT = 1 << 20
MAX_BUFFERS = 64

_HEADER = struct.Struct('>II')
_U64 = struct.Struct('>Q')


class FeedSocket:
    """A socket that serves ``data`` in the given chunk sizes, then ends.

    ``eof=True`` ends with a closed peer (``recv_into`` returns 0);
    otherwise with ``BlockingIOError``, like a drained non-blocking socket.
    ``views`` holds the view of every ``recv_into`` call, in order.
    """

    def __init__(self, data: bytes, chunks: list[int] | None = None, *, eof: bool = True) -> None:
        self._data = memoryview(data)
        self._chunks = list(chunks) if chunks else [len(data)]
        self._eof = eof
        self._budget = 4 * (len(data) + len(self._chunks)) + 64
        self.views: list[memoryview] = []

    def recv_into(self, view: memoryview, nbytes: int = 0) -> int:
        self.views.append(view)
        self._budget -= 1
        assert self._budget > 0, 'decoder is spinning on the socket'
        if len(view) == 0:
            return 0  # what the kernel answers to a zero-length read
        while self._chunks and self._chunks[0] == 0:
            self._chunks.pop(0)
        if not self._chunks or not len(self._data):
            if self._eof:
                return 0
            raise BlockingIOError
        n = min(len(view), self._chunks[0], len(self._data))
        view[:n] = self._data[:n]
        self._data = self._data[n:]
        self._chunks[0] -= n
        return n

    def readable(self) -> bool:
        """What a level-triggered selector reports: bytes left, or EOF."""
        return self._eof or bool(len(self._data) and any(self._chunks))


@pytest.fixture()
def allocations(monkeypatch):
    """Lower the frame limits and record every allocation the decoder asks for.

    That is every ``bytearray`` and every section buffer (which is a
    ``bytearray`` below ``READ_AHEAD_BYTES``, recorded as such, and
    uninitialised memory from there up).
    """
    sizes: list[int] = []
    section_buffer = protocol._section_buffer

    def spying_bytearray(size=0):
        if isinstance(size, int):
            sizes.append(size)
        return bytearray(size)

    def spying_section_buffer(size):
        if size >= READ_AHEAD_BYTES:
            sizes.append(size)
        return section_buffer(size)

    monkeypatch.setattr(protocol, 'MAX_FRAME_BYTES', LIMIT)
    monkeypatch.setattr(protocol, '_MAX_BUFFERS', MAX_BUFFERS)
    monkeypatch.setattr(protocol, 'bytearray', spying_bytearray, raising=False)
    monkeypatch.setattr(protocol, '_section_buffer', spying_section_buffer)
    return sizes


def _random_message(rng: random.Random) -> tuple:
    """A request or response shaped like real traffic, buffers out of band."""
    def value() -> list[pickle.PickleBuffer]:
        sizes = [rng.choice((0, 1, 7, 4096, 70_000)) for _ in range(rng.randrange(1, 4))]
        return [pickle.PickleBuffer(rng.randbytes(size)) for size in sizes]

    shape = rng.randrange(4)
    request_id = rng.randrange(1 << 31)
    if shape == 0:
        return (request_id, 'GET', f'key-{rng.randrange(100)}', None)
    if shape == 1:
        return (request_id, 'SET', f'key-{rng.randrange(100)}', value())
    if shape == 2:
        return (request_id, 'MSET', None, [(f'k{i}', value()) for i in range(rng.randrange(1, 4))])
    return (request_id, 'ok', pickle.PickleBuffer(rng.randbytes(rng.choice((0, 3, 9000)))))


def _plain(obj):
    """Out-of-band buffers come back as writable views: compare by content."""
    if isinstance(obj, (pickle.PickleBuffer, bytearray, memoryview)):
        return bytes(obj)
    if isinstance(obj, (list, tuple)):
        return type(obj)(_plain(item) for item in obj)
    return obj


def _skeleton(obj):
    """``obj`` with every payload blanked: what the pickle body alone says."""
    if isinstance(obj, bytes):
        return None
    if isinstance(obj, (list, tuple)):
        return type(obj)(_skeleton(item) for item in obj)
    return obj


def _wire(message) -> bytes:
    return b''.join(bytes(segment) for segment in encode_message(message))


def _read_from(decoder: StreamDecoder, sock: FeedSocket) -> tuple[list, bool]:
    """``read_from`` while the socket is readable; returns (messages, closed).

    ``read_from`` stops after a short receive, so this is the event loop:
    call again for as long as a level-triggered selector would report the
    socket.
    """
    messages: list = []
    while True:
        part, closed = decoder.read_from(sock)
        messages.extend(_plain(m) for m in part)
        if closed or not sock.readable():
            return messages, closed


def _read_messages(decoder: StreamDecoder, sock: FeedSocket) -> tuple[list, bool]:
    """The same through ``read_message``, one frame at a time."""
    messages: list = []
    while True:
        try:
            message = decoder.read_message(sock)
        except BlockingIOError:
            return messages, False
        if message is None:
            return messages, True
        messages.append(_plain(message))


#: Both entry points, each as ``drain(decoder, sock) -> (messages, closed)``.
ENTRY_POINTS = (_read_from, _read_messages)


def _random_chunks(rng: random.Random, total: int) -> list[int]:
    chunks = []
    while total > 0:
        n = min(total, rng.choice((1, 2, 3, 8, 9, 64, 5000, 1 << 17)))
        chunks.append(n)
        total -= n
    return chunks


# -- well-formed streams ---------------------------------------------------- #

def test_fuzz_split_feeds_yield_the_original_messages(allocations):
    for draw in range(DRAWS):
        rng = random.Random(f'{SEED}-split-{draw}')
        messages = [_random_message(rng) for _ in range(rng.randrange(1, 5))]
        stream = b''.join(_wire(m) for m in messages)
        chunks = _random_chunks(rng, len(stream))
        for drain in ENTRY_POINTS:
            got, closed = drain(StreamDecoder(), FeedSocket(stream, chunks, eof=False))
            assert not closed
            assert got == [_plain(m) for m in messages], f'seed={SEED} draw={draw}'
        assert max(allocations) <= LIMIT


def test_fuzz_one_decoder_survives_many_partial_drains():
    """Each drain sees a few bytes; frames complete across calls."""
    rng = random.Random(f'{SEED}-partial')
    messages = [_random_message(rng) for _ in range(12)]
    stream = b''.join(_wire(m) for m in messages)
    pieces = []
    offset = 0
    while offset < len(stream):
        step = rng.choice((1, 5, 13, 4000, 100_000))
        pieces.append(stream[offset:offset + step])
        offset += step
    for drain in ENTRY_POINTS:
        decoder = StreamDecoder()
        got: list = []
        for piece in pieces:
            part, closed = drain(decoder, FeedSocket(piece, eof=False))
            assert not closed
            got.extend(part)
        assert got == [_plain(m) for m in messages]


def test_truncation_at_every_byte_boundary_never_yields_a_partial_message():
    rng = random.Random(f'{SEED}-truncate')
    first = (1, 'SET', 'k', [pickle.PickleBuffer(rng.randbytes(40)), pickle.PickleBuffer(b'')])
    second = (2, 'ok', pickle.PickleBuffer(rng.randbytes(9)))
    wires = [_wire(first), _wire(second)]
    stream = b''.join(wires)
    for cut in range(len(stream)):
        expected = [_plain(first)] if cut >= len(wires[0]) else []
        for chunks in (None, _random_chunks(rng, cut)):
            for drain in ENTRY_POINTS:
                got, closed = drain(StreamDecoder(), FeedSocket(stream[:cut], chunks))
                assert closed and got == expected, f'cut={cut} chunks={chunks}'


# -- damaged headers ---------------------------------------------------------- #

def _outcome(drain, stream: bytes, chunks: list[int]):
    """Decode ``stream`` to the end; returns messages or the error raised."""
    try:
        return drain(StreamDecoder(), FeedSocket(stream, chunks))[0]
    except DECODE_ERRORS as e:
        return e


def test_fuzz_corrupted_header_bytes(allocations):
    """Flip bytes inside the header / length table of a valid frame."""
    for draw in range(DRAWS * 5):
        rng = random.Random(f'{SEED}-header-{draw}')
        message = _random_message(rng)
        wire = bytearray(_wire(message))
        _, n_buffers = _HEADER.unpack_from(wire)
        table_end = _HEADER.size + _U64.size * n_buffers
        for _ in range(rng.randrange(1, 4)):
            wire[rng.randrange(table_end)] = rng.randrange(256)
        chunks = _random_chunks(rng, len(wire))
        for drain in ENTRY_POINTS:
            allocations.clear()
            outcome = _outcome(drain, bytes(wire), chunks)
            note = f'seed={SEED} draw={draw} outcome={outcome!r}'
            if not isinstance(outcome, Exception) and outcome:
                # Nothing (still waiting for bytes a larger declared size
                # promised) or the message itself.  Frames carry no checksum
                # (TCP has its own), so a damaged length table whose total
                # still fits can re-slice where buffer bytes land — but the
                # pickled body is intact: same ids, command, keys and buffer
                # count.
                (decoded,) = outcome
                assert _skeleton(decoded) == _skeleton(_plain(message)), note
            assert sum(allocations) <= (
                LIMIT + _U64.size * MAX_BUFFERS + _HEADER.size * 2 + READ_AHEAD_BYTES
            ), note


@pytest.mark.parametrize(
    ('pickle_len', 'n_buffers', 'lengths'),
    [
        (LIMIT + 1, 0, ()),                       # oversized pickle_len
        (0xFFFFFFFF, 0, ()),
        (16, MAX_BUFFERS + 1, ()),                # oversized n_buffers
        (16, 0xFFFFFFFF, ()),
        (16, 2, (LIMIT, 1)),                      # length table sums past the limit
        (16, 1, (0xFFFFFFFFFFFFFFFF,)),
        (LIMIT - 8, 1, (9,)),
    ],
)
def test_oversized_dimensions_are_rejected_before_allocating(
    allocations, pickle_len, n_buffers, lengths,
):
    header = _HEADER.pack(pickle_len, n_buffers) + b''.join(_U64.pack(n) for n in lengths)
    sock = FeedSocket(header + b'\x00' * 64, eof=False)
    allocations.clear()
    with pytest.raises(ValueError, match='corrupt or oversized SimKV frame'):
        StreamDecoder().read_from(sock)
    # Only the decoder's fixed scratch, the header and (for a bad table) the
    # table itself and the pickle target were ever requested — nothing sized
    # by the rejected numbers.
    assert sum(allocations) <= (
        LIMIT + _U64.size * MAX_BUFFERS + _HEADER.size + READ_AHEAD_BYTES
    )


def test_largest_legal_dimensions_are_accepted(allocations):
    """The bound is tight: a frame exactly at the limit is not an error."""
    header = _HEADER.pack(LIMIT - 9, 1) + _U64.pack(9)
    messages, closed = StreamDecoder().read_from(FeedSocket(header, eof=False))
    assert (messages, closed) == ([], False)  # waiting for the pickle bytes
    assert max(allocations) == LIMIT - 9


def test_zero_length_pickle_is_rejected_as_corrupt():
    """No sender emits ``pickle_len == 0``: it is a damaged frame, not an empty one."""
    stream = _HEADER.pack(0, 0) + _wire((1, 'GET', 'k', None))
    for drain in ENTRY_POINTS:
        with pytest.raises(ValueError, match='corrupt or oversized SimKV frame'):
            drain(StreamDecoder(), FeedSocket(stream, eof=False))


# -- read-ahead: what one receive brings -------------------------------------- #

def _small_set(key: str = 'k') -> tuple:
    return (1, 'SET', key, [pickle.PickleBuffer(bytes(1024))])


def test_small_frame_costs_one_receive():
    """A 1 KB ``SET`` that arrived whole is one ``recv_into``, not one a section."""
    wire = _wire(_small_set())
    sock = FeedSocket(wire, eof=False)
    assert _plain(StreamDecoder().read_message(sock)) == _plain(_small_set())
    assert len(sock.views) == 1
    # The event loop pays no more: a short receive says "drained".
    sock = FeedSocket(wire, eof=False)
    messages, closed = StreamDecoder().read_from(sock)
    assert ([_plain(m) for m in messages], closed) == ([_plain(_small_set())], False)
    assert len(sock.views) == 1


def test_frame_split_across_two_receives_decodes_over_two_calls():
    """Each short receive ends a ``read_from``; the next call finishes the frame."""
    wire = _wire(_small_set())
    cut = len(wire) // 2
    decoder = StreamDecoder()
    sock = FeedSocket(wire, [cut, len(wire) - cut], eof=False)
    assert decoder.read_from(sock) == ([], False)
    assert len(sock.views) == 1 and sock.readable()
    messages, closed = decoder.read_from(sock)
    assert ([_plain(m) for m in messages], closed) == ([_plain(_small_set())], False)
    assert len(sock.views) == 2 and not sock.readable()


def test_pipelined_frames_decode_from_one_receive():
    wire = _wire(_small_set('a')) + _wire(_small_set('b'))
    decoder, sock = StreamDecoder(), FeedSocket(wire, eof=False)
    first = decoder.read_message(sock)
    assert _plain(first) == _plain(_small_set('a'))
    assert _plain(decoder.read_message(sock)) == _plain(_small_set('b'))
    assert len(sock.views) == 1
    # A decoded message owns its bytes: the next receive reuses the scratch.
    decoder.read_message(FeedSocket(_wire((2, 'ok', pickle.PickleBuffer(b'\xff' * 2048)))))
    assert _plain(first) == _plain(_small_set('a'))


def test_bulk_buffer_is_received_in_place():
    """Of a 4 MiB buffer at most one scratch-full is copied; the rest is not."""
    payload = random.Random(SEED).randbytes(4 << 20)
    sock = FeedSocket(_wire((1, 'ok', pickle.PickleBuffer(payload))))
    _request_id, _status, received = StreamDecoder().read_message(sock)
    assert received == payload
    scratch, in_place = sock.views
    assert len(scratch) == READ_AHEAD_BYTES
    # The second receive was handed the memory the reply is a view of, past
    # what the first had already brought.
    assert in_place.obj is received.obj
    assert len(in_place) > len(payload) - READ_AHEAD_BYTES


@pytest.mark.parametrize('where', ['first', 'scratch', 'middle', 'last'])
def test_bulk_frame_cut_inside_its_buffer_yields_nothing(where):
    """Memory received in place is not zero-filled: a frame cut anywhere
    inside its 4 MiB buffer must never come out, and a whole one must come
    out byte for byte."""
    payload = random.Random(f'{SEED}-cut-{where}').randbytes(4 << 20)
    wire = _wire((1, 'ok', pickle.PickleBuffer(payload)))
    start = len(wire) - len(payload)
    cut = {
        'first': start + 1,
        'scratch': start + READ_AHEAD_BYTES,
        'middle': start + len(payload) // 2,
        'last': len(wire) - 1,
    }[where]
    for drain in ENTRY_POINTS:
        for eof in (True, False):
            got, closed = drain(StreamDecoder(), FeedSocket(wire[:cut], eof=eof))
            assert (got, closed) == ([], eof), f'{drain.__name__} eof={eof}'
        (message,), closed = drain(StreamDecoder(), FeedSocket(wire, eof=False))
        assert message == (1, 'ok', payload) and not closed
