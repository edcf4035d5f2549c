"""The broker commands' wire shapes, pinned against literals.

The topic and group state moved out of the server into
:mod:`repro.kvserver.broker`; what travels on the wire must not have
noticed.  ``TRANSCRIPT`` is the request value and reply of every group,
offset, replication and topic command as the server answered them *before*
the move (captured from that commit with the same script), and
``REJECTED`` is every check the server makes on what arrives from the
wire, with the error text old clients see; the in-process broker makes
the group-command checks among them too.
"""
from __future__ import annotations

import pickle
import socket
import threading
import time

import pytest

from repro.exceptions import ConnectorError
from repro.exceptions import GroupMembershipError
from repro.kvserver import KVClient
from repro.kvserver import KVServer
from repro.kvserver.broker import GROUP_COMMANDS
from repro.kvserver.protocol import StreamDecoder
from repro.kvserver.protocol import send_message
from repro.stream import KVEventBus
from repro.stream import LocalEventBus
from repro.stream.groups import GroupCoordinator
from repro.stream.groups import PartitionRouter

G_VIEW = {'generation': 2, 'members': ['m1', 'm2']}

TRANSCRIPT = [
    ('GROUP_JOIN', 'g', {'member': 'm1', 'session_timeout': 5.0},
     {'generation': 1, 'members': ['m1']}),
    ('GROUP_JOIN', 'g', {'member': 'm2', 'session_timeout': None}, G_VIEW),
    ('GROUP_HEARTBEAT', 'g',
     {'member': 'm1', 'positions': {'t.p0': 4}, 'ends': {'t.p0': 9}}, G_VIEW),
    ('GROUP_HEARTBEAT', 'g',
     {'member': 'm1', 'positions': {}, 'ends': {}}, G_VIEW),
    ('OFFSET_COMMIT', 'g',
     {'offsets': {'t.p0': 3}, 'member': 'm1', 'positions': {'t.p0': 4},
      'ends': {'t.p1': 7}}, G_VIEW),
    ('OFFSET_COMMIT', 'g',
     {'offsets': {'t.p0': 1}, 'member': '', 'positions': {}, 'ends': {}},
     G_VIEW),
    ('OFFSET_FETCH', 'g', {'topics': ['t.p0', 't.p1', 't.p2']}, {
        't.p0': {'committed': 3, 'watermark': 4, 'end': 9, 'end_member': 'm1'},
        't.p1': {'committed': 0, 'watermark': 0, 'end': 7, 'end_member': 'm1'},
        't.p2': {'committed': 0, 'watermark': 0, 'end': None,
                 'end_member': None},
    }),
    ('GROUP_LEAVE', 'g', {'member': 'm2', 'positions': {'t.p1': 2}},
     {'generation': 3, 'members': ['m1']}),
    ('GROUP_LEAVE', 'g', {'member': 'm2', 'positions': {}},
     {'generation': 3, 'members': ['m1']}),
    ('GROUP_STATS', 'g', None, {
        'generation': 3, 'members': ['m1'], 'committed': {'t.p0': 3},
        'watermarks': {'t.p0': 4, 't.p1': 2}, 'ends': {'t.p0': 9, 't.p1': 7},
        'expired_members': 0,
    }),
    ('REPL_GROUP', 'g2',
     {'op': 'join', 'member': 'm1', 'session_timeout': 5.0, 'generation': 3},
     {'generation': 3, 'members': ['m1']}),
    ('REPL_GROUP', 'g2',
     {'op': 'commit', 'member': 'm1', 'offsets': {'t.p0': 5},
      'positions': {'t.p0': 6}, 'ends': {'t.p0': 9}, 'generation': 2},
     {'generation': 3, 'members': ['m1']}),
    ('GROUP_STATS', 'g2', None, {
        'generation': 3, 'members': ['m1'], 'committed': {'t.p0': 5},
        'watermarks': {'t.p0': 6}, 'ends': {'t.p0': 9}, 'expired_members': 0,
    }),
    ('PUBLISH', 't', [b'x0'], 0),
    ('PUBLISH', 't', [b'x1'], 1),
    ('PUBLISH', 't', [b'x2'], 2),
    ('PUBLISH', 't', [b'x3'], 3),
    ('PUBLISH', 't', [b'x4'], 4),
    ('PUBLISH', 't', [b'x5'], 5),
    ('MPUBLISH', 't', [[b'aa'], [b'bb']], [6, 7]),
    ('FETCH', 't', {'since': 5, 'max_events': 2},
     {'events': [(5, b'x5'), (6, b'aa')], 'next_seq': 8, 'lost': 0}),
    ('FETCH', 't', {'since': 0, 'max_events': 0},
     {'events': [(4, b'x4'), (5, b'x5'), (6, b'aa'), (7, b'bb')],
      'next_seq': 8, 'lost': 4}),
    ('TSTATS', 't', None, {
        'next_seq': 8, 'ring_events': 4, 'ring_bytes': 8, 'retention': 4,
        'dropped_events': 4,
    }),
    ('TSTATS', 'nope', None, None),
    ('TCONFIG', 't', {'retention': 2}, {'retention': 2}),
    ('TSTATS', 't', None, {
        'next_seq': 8, 'ring_events': 2, 'ring_bytes': 4, 'retention': 2,
        'dropped_events': 6,
    }),
    ('REPL_PUBLISH', 'r',
     [(1, [b'a']), (3, [b'c']), (3, [b'c']), (2, [b'b'])],
     {'accepted': 3, 'next_seq': 4}),
    ('FETCH', 'r', {'since': 0, 'max_events': 0},
     {'events': [(1, b'a'), (2, b'b'), (3, b'c')], 'next_seq': 4, 'lost': 1}),
    ('TSTATS', 'r', None, {
        'next_seq': 4, 'ring_events': 3, 'ring_bytes': 3, 'retention': 4,
        'dropped_events': 0,
    }),
]

FETCH_BOUNDS = 'FETCH since and max_events must be ints >= 0'
FETCH_WAIT = 'FETCH wait must be seconds in [0, 60.0]'
REPL_SEQ = 'REPL_PUBLISH seq must be an int >= 0'

REJECTED = [
    ('GROUP_JOIN', {'member': ''}, 'GROUP_JOIN requires a member id'),
    ('GROUP_JOIN', {'member': 'm', 'session_timeout': -1},
     'session_timeout must be positive'),
    ('GROUP_HEARTBEAT', {'member': 'ghost'}, "unknown member 'ghost'"),
    ('OFFSET_COMMIT', {'offsets': [1]},
     'OFFSET_COMMIT requires an offsets dict'),
    ('OFFSET_FETCH', {'topics': 't'}, 'OFFSET_FETCH requires a topics list'),
    ('PUBLISH', 5, 'PUBLISH payload must be bytes'),
    ('MPUBLISH', [5], 'MPUBLISH payloads must be bytes'),
    ('MPUBLISH', 5, 'MPUBLISH value must be a list of payloads'),
    ('REPL_PUBLISH', [(1, 5)], 'REPL_PUBLISH payloads must be bytes'),
    ('REPL_PUBLISH', 5, 'REPL_PUBLISH value must be [(seq, payload), ...]'),
    ('REPL_PUBLISH', [5], 'malformed REPL_PUBLISH entry: 5'),
    ('TCONFIG', {'retention': 0}, 'retention must be at least 1'),
    ('FETCH', {'since': -4}, FETCH_BOUNDS),
    ('FETCH', {'since': 0, 'max_events': -2}, FETCH_BOUNDS),
    ('FETCH', {'since': 1.5}, FETCH_BOUNDS),
    ('FETCH', {'since': 0, 'wait': -1}, FETCH_WAIT),
    ('FETCH', {'since': 0, 'wait': 61}, FETCH_WAIT),
    ('FETCH', {'since': 0, 'wait': float('inf')}, FETCH_WAIT),
    ('FETCH', {'since': 0, 'wait': float('nan')}, FETCH_WAIT),
    ('FETCH', {'since': 0, 'wait': '1'}, FETCH_WAIT),
    ('REPL_PUBLISH', [(-3, b'x')], REPL_SEQ),
    ('REPL_PUBLISH', [(2.7, b'x')], REPL_SEQ),
    ('REPL_PUBLISH', [('x', b'x')], REPL_SEQ),
    ('GROUP_HEARTBEAT', {'member': 'ghost', 'positions': {'t': 'x'}},
     'positions must be ints >= 0'),
    ('GROUP_HEARTBEAT', {'member': 'ghost', 'positions': {'t': -1}},
     'positions must be ints >= 0'),
    ('GROUP_HEARTBEAT', {'member': 'ghost', 'ends': {'t': 'z'}},
     'ends must be ints >= 0'),
    ('GROUP_LEAVE', {'member': 'm', 'positions': {'t': 1.5}},
     'positions must be ints >= 0'),
    ('OFFSET_COMMIT', {'offsets': {'t': None}}, 'offsets must be ints >= 0'),
    ('OFFSET_COMMIT', {'offsets': {'t': 2.7}}, 'offsets must be ints >= 0'),
    ('GROUP_JOIN', {'member': 'm', 'session_timeout': 'x'},
     'session_timeout must be positive'),
    ('GROUP_JOIN', {'member': 'm', 'session_timeout': float('nan')},
     'session_timeout must be positive'),
    ('REPL_GROUP', {'op': 'commit', 'member': 'b', 'generation': 'x'},
     'generation must be an int >= 0'),
    ('REPL_GROUP', {'op': 'join', 'member': 'b', 'session_timeout': 'y'},
     'session_timeout must be positive'),
    ('REPL_GROUP', {'op': 'commit', 'member': 'b', 'offsets': {'t': 'q'}},
     'offsets must be ints >= 0'),
    ('OFFSET_FETCH', {'topics': [['t']]}, 'OFFSET_FETCH topics must be strings'),
    # A value is a list of buffers and nothing else: a stored string or a
    # bare value would fail every later GET or FETCH of its key or topic.
    ('SET', ['a'], 'SET value must be bytes'),
    ('SET', [b'a', 'b'], 'SET value must be bytes'),
    ('SET', b'a', 'SET value must be bytes'),
    ('MSET', [('k', ['a'])], 'MSET values must be bytes'),
    ('MSET', [('k', [b'a', 'b'])], 'MSET values must be bytes'),
    ('PUBLISH', ['a'], 'PUBLISH payload must be bytes'),
    ('PUBLISH', [b'a', 'b'], 'PUBLISH payload must be bytes'),
    ('PUBLISH', [(0, b'a')], 'PUBLISH payload must be bytes'),
    ('MPUBLISH', [['a']], 'MPUBLISH payloads must be bytes'),
    ('MPUBLISH', [[b'a', 'b']], 'MPUBLISH payloads must be bytes'),
    ('TCONFIG', {'retention': [1]}, 'retention must be an int'),
    ('TCONFIG', {'retention': 'x'}, 'retention must be an int'),
    ('TCONFIG', {'retention': 2.7}, 'retention must be an int'),
]


def _plain(value):
    """``value`` with every wire buffer flattened to ``bytes``."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    if isinstance(value, (bytearray, memoryview, pickle.PickleBuffer)):
        return bytes(value)
    return value


class _RecordingClient(KVClient):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transcript = []

    def _request(self, command, key=None, value=None):
        reply = super()._request(command, key, value)
        self.transcript.append((command, key, _plain(value), _plain(reply)))
        return reply


@pytest.fixture()
def server():
    with KVServer(stream_retention=4) as server:
        yield server


def _recording_bus(server):
    """A SimKV bus whose request client records every request and reply."""
    bus = KVEventBus(server.host, server.port)
    bus.client.close()
    bus.client = _RecordingClient(server.host, server.port)
    return bus


def test_broker_commands_keep_their_request_and_reply_shapes(server):
    """The group rows are the option dicts ``GroupCoordinator`` builds."""
    bus = _recording_bus(server)
    c = bus.client
    router = PartitionRouter('t', 1, bus)
    coordinator = GroupCoordinator('g', router)
    coordinator.join('m1', session_timeout=5.0)
    coordinator.join('m2', session_timeout=None)
    coordinator.heartbeat('m1', {'t.p0': 4}, {'t.p0': 9})
    coordinator.heartbeat('m1', {})
    coordinator.commit('m1', {'t.p0': 3}, {'t.p0': 4}, {'t.p1': 7})
    coordinator.commit('', {'t.p0': 1}, {})
    coordinator.fetch(['t.p0', 't.p1', 't.p2'])
    coordinator.leave('m2', {'t.p1': 2})
    coordinator.leave('m2', {})
    coordinator.stats()
    c.repl_group('g2', {'op': 'join', 'member': 'm1',
                        'session_timeout': 5.0, 'generation': 3})
    c.repl_group('g2', {'op': 'commit', 'member': 'm1',
                        'offsets': {'t.p0': 5}, 'positions': {'t.p0': 6},
                        'ends': {'t.p0': 9}, 'generation': 2})
    GroupCoordinator('g2', router).stats()
    for i in range(6):
        c.publish('t', b'x%d' % i)
    c.publish_batch('t', [b'aa', b'bb'])
    c.fetch_events('t', 5, 2)
    c.fetch_events('t', 0)
    c.topic_stats('t')
    c.topic_stats('nope')
    c.topic_config('t', retention=2)
    c.topic_stats('t')
    c.repl_publish('r', [(1, b'a'), (3, b'c'), (3, b'c'), (2, b'b')])
    c.fetch_events('r', 0)
    c.topic_stats('r')
    bus.close()
    assert c.transcript == TRANSCRIPT


def test_mirror_replays_each_mutating_command_with_its_own_options():
    """``REPL_GROUP`` carries the command's options plus ``op`` and the
    primary's generation; fetch and stats are not mirrored."""
    with KVServer() as first, KVServer() as second:
        buses = [_recording_bus(first), _recording_bus(second)]
        router = PartitionRouter('t', 1, buses, replicas=2)
        coordinator = GroupCoordinator('g', router)
        coordinator.join('m1', session_timeout=5.0)
        coordinator.heartbeat('m1', {'t': 4}, {'t': 9})
        coordinator.commit('m1', {'t': 3}, {'t': 4})
        coordinator.fetch(['t'])
        coordinator.stats()
        coordinator.leave('m1', {'t': 5})
        primary = router.bus_of(coordinator.acting_broker).client
        replica, = (bus.client for bus in buses if bus.client is not primary)
        for bus in buses:
            bus.close()
    assert [row[0] for row in primary.transcript] == [
        'GROUP_JOIN', 'GROUP_HEARTBEAT', 'OFFSET_COMMIT', 'OFFSET_FETCH',
        'GROUP_STATS', 'GROUP_LEAVE',
    ]
    expected = [
        {'op': GROUP_COMMANDS[command][0], **options,
         'generation': reply['generation']}
        for command, _group, options, reply in primary.transcript
        if GROUP_COMMANDS[command][1]
    ]
    assert [row[:2] for row in replica.transcript] == [('REPL_GROUP', 'g')] * 4
    mirrored = [row[2] for row in replica.transcript]
    assert mirrored == expected
    assert [list(delta) for delta in mirrored] == [list(d) for d in expected]
    assert mirrored == [
        {'op': 'join', 'member': 'm1', 'session_timeout': 5.0, 'generation': 1},
        {'op': 'heartbeat', 'member': 'm1', 'positions': {'t': 4},
         'ends': {'t': 9}, 'generation': 1},
        {'op': 'commit', 'offsets': {'t': 3}, 'member': 'm1',
         'positions': {'t': 4}, 'ends': {}, 'generation': 1},
        {'op': 'leave', 'member': 'm1', 'positions': {'t': 5}, 'generation': 2},
    ]


@pytest.mark.parametrize(('command', 'value', 'message'), REJECTED)
def test_server_rejects_malformed_wire_input(server, command, value, message):
    with KVClient(server.host, server.port) as client:
        with pytest.raises(ConnectorError) as caught:
            client._request(command, 'k', value)
        assert str(caught.value) == f'SimKV error: {message}'
        # Only the expired-member reply is typed; it is still a
        # ConnectorError for callers that predate the type.
        expired = message.startswith('unknown member')
        assert isinstance(caught.value, GroupMembershipError) is expired
        assert client.ping()  # the connection survived the bad request


@pytest.mark.parametrize(
    ('command', 'value', 'message'),
    [row for row in REJECTED
     if row[0] in GROUP_COMMANDS and not row[2].startswith('unknown member')],
)
def test_in_process_broker_rejects_what_the_server_rejects(command, value, message):
    broker = LocalEventBus().client
    with pytest.raises(ConnectorError) as caught:
        broker.group_command(command, 'g', value)
    assert str(caught.value) == message
    assert not isinstance(caught.value, GroupMembershipError)
    assert broker.group_command('GROUP_STATS', 'g')['members'] == []


@pytest.mark.parametrize('transport', ['kv', 'local'])
def test_a_refused_group_command_changes_nothing(server, transport):
    if transport == 'kv':
        client = KVClient(server.host, server.port)
    else:
        client = LocalEventBus().client
    client.group_command('GROUP_JOIN', 'g', {'member': 'a', 'session_timeout': 30.0})
    client.group_command('OFFSET_COMMIT', 'g', {'offsets': {'t': 1}, 'member': 'a'})
    before = client.group_command('GROUP_STATS', 'g')
    refused = [
        ('GROUP_HEARTBEAT', {'member': 'a', 'positions': {'t': 4, 'u': 'x'},
                             'ends': {'t': 9}}),
        ('GROUP_LEAVE', {'member': 'a', 'positions': {'t': 4, 'u': -1}}),
        ('OFFSET_COMMIT', {'offsets': {'t': 3, 'u': None}, 'member': 'a'}),
        ('OFFSET_COMMIT', {'offsets': {'t': 3}, 'member': 'a',
                           'ends': {'t': 'z'}}),
        ('GROUP_JOIN', {'member': 'b', 'session_timeout': 'x'}),
    ]
    for command, options in refused:
        with pytest.raises(ConnectorError):
            client.group_command(command, 'g', options)
    if transport == 'kv':
        with pytest.raises(ConnectorError):
            client.repl_group('g', {'op': 'commit', 'member': 'b',
                                    'offsets': {'t': 5, 'u': 'q'},
                                    'generation': 7})
    assert client.group_command('GROUP_STATS', 'g') == before
    if transport == 'kv':
        client.close()


def test_a_refused_write_changes_nothing(server):
    with KVClient(server.host, server.port) as client:
        client.set('k', b'v')
        client.publish('t', b'e0')
        before = (client.size(), client.topic_stats('t'), client.topic_stats('new'))
        refused = [
            ('SET', 'k', ['a']),
            ('SET', 'k', [b'a', 'b']),
            ('MSET', None, [('k', [b'x']), ('k2', ['a'])]),
            ('PUBLISH', 't', ['a']),
            ('PUBLISH', 't', [(0, b'a')]),
            ('MPUBLISH', 't', [[b'x'], [b'a', 'b']]),
            ('REPL_PUBLISH', 't', [(1, [b'x']), (2, ['a'])]),
            ('TCONFIG', 'new', {'retention': [1]}),
            ('TCONFIG', 'new', {'retention': 'x'}),
            ('TCONFIG', 'new', {'retention': 0}),
            ('TCONFIG', 't', {'retention': 2.7}),
        ]
        for command, key, value in refused:
            with pytest.raises(ConnectorError):
                client._request(command, key, value)
        assert (client.size(), client.topic_stats('t'), client.topic_stats('new')) == before
        assert bytes(client.get('k')) == b'v' and client.get('k2') is None
        assert _plain(client.fetch_events('t', 0)) == {
            'events': [(0, b'e0')], 'next_seq': 1, 'lost': 0,
        }


def test_reading_an_unknown_topic_creates_no_topic(server):
    """``FETCH`` (plain or waited until it expires) and a ``TCONFIG``
    without ``retention`` answer an unknown topic from an empty view; only
    a write makes a ring, so made-up names cannot grow the broker."""
    empty = {'events': [], 'next_seq': 0, 'lost': 0}
    with KVClient(server.host, server.port) as client:
        assert _plain(client.fetch_events('a', 3)) == empty
        assert _plain(client.fetch_events('c', 0, wait=0.05)) == empty
        assert client._request('TCONFIG', 'b', {}) == {'retention': 4}
        assert [client.topic_stats(t) for t in 'abc'] == [None, None, None]
        assert len(server._topics) == 0
        client.topic_config('b', retention=2)
        assert client._request('TCONFIG', 'b', {}) == {'retention': 2}
        assert list(server._topics) == ['b']


# --------------------------------------------------------------------------- #
# A FETCH with a wait parks on its topic
# --------------------------------------------------------------------------- #
def _park(server, topic, since, wait=5.0):
    """Park a ``FETCH`` (request id 1) on a raw socket; returns the socket
    and its frame reader.

    A ``PING`` sent behind the fetch comes back first: that proves the
    fetch was handled — and parked — without holding up the connection.
    """
    sock = socket.create_connection((server.host, server.port))
    decoder = StreamDecoder()  # one per socket: it owns the read-ahead
    send_message(sock, (1, 'FETCH', topic, {'since': since, 'max_events': 0, 'wait': wait}))
    send_message(sock, (2, 'PING', None, None))
    assert decoder.read_message(sock) == (2, 'ok', 'PONG')
    return sock, lambda: _plain(decoder.read_message(sock))


def test_publish_and_mpublish_wake_a_parked_fetch(server):
    with KVClient(server.host, server.port) as client:
        sock, read = _park(server, 'w', since=0)
        client.publish('w', b'x0')
        assert read() == (1, 'ok', {'events': [(0, b'x0')], 'next_seq': 1, 'lost': 0})
        sock.close()
        sock, read = _park(server, 'w', since=1)
        client.publish_batch('w', [b'x1', b'x2'])
        assert read() == (1, 'ok', {
            'events': [(1, b'x1'), (2, b'x2')], 'next_seq': 3, 'lost': 0,
        })
        sock.close()


def test_repl_publish_wakes_a_fetch_parked_on_a_replica(server):
    """A subscriber that failed over to a replica keeps receiving events
    while producers still publish via the primary and mirror here."""
    with KVClient(server.host, server.port) as client:
        sock, read = _park(server, 'r', since=5)
        client.repl_publish('r', [(4, b'old')])  # below since: still parked
        client.repl_publish('r', [(5, b'new')])
        assert read() == (1, 'ok', {'events': [(5, b'new')], 'next_seq': 6, 'lost': 0})
        sock.close()


def test_parked_fetch_expires_empty_and_never_early(server):
    wait = 0.3
    started = time.monotonic()
    sock, read = _park(server, 'quiet', since=0, wait=wait)
    assert read() == (1, 'ok', {'events': [], 'next_seq': 0, 'lost': 0})
    assert time.monotonic() - started >= wait
    sock.close()


def test_parked_fetches_on_one_topic_expire_each_at_its_own_deadline(server):
    """One topic, three parked fetches: one answered early by a publish
    (its deadline entry goes stale), a short one that expires empty, and
    a long one that is still parked after both and woken by a publish."""
    with KVClient(server.host, server.port) as client:
        early, read_early = _park(server, 'd', since=0, wait=0.2)
        client.publish('d', b'e0')
        assert read_early()[2]['events'] == [(0, b'e0')]
        long_, read_long = _park(server, 'd', since=1, wait=30.0)
        started = time.monotonic()
        short, read_short = _park(server, 'd', since=1, wait=0.3)
        assert read_short() == (1, 'ok', {'events': [], 'next_seq': 1, 'lost': 0})
        assert time.monotonic() - started >= 0.3
        assert len(server._parked['d']) == 1  # the long fetch still waits
        client.publish('d', b'e1')
        assert read_long() == (1, 'ok', {'events': [(1, b'e1')], 'next_seq': 2, 'lost': 0})
        for sock in (early, long_, short):
            sock.close()


def test_fetch_wait_is_capped_below_the_client_timeout(server):
    """A wait past the client's timeout is cut to half of it, so the
    parked fetch comes back empty instead of timing the request out."""
    with KVClient(server.host, server.port, timeout=1.0) as client:
        started = time.monotonic()
        reply = client.fetch_events('capped', 0, wait=5.0)
        assert _plain(reply) == {'events': [], 'next_seq': 0, 'lost': 0}
        assert 0.5 <= time.monotonic() - started < 1.0


def test_parked_fetch_does_not_hold_up_a_later_get(server):
    with KVClient(server.host, server.port) as client:
        client.set('k', b'value')
        sock, read = _park(server, 'g', since=0)
        send_message(sock, (3, 'GET', 'k', None))
        assert read() == (3, 'ok', b'value')  # out of order: the fetch waits on
        client.publish('g', b'e')
        assert read()[0] == 1
        sock.close()


def test_closing_the_connection_drops_its_parked_fetch(server):
    sock, _read = _park(server, 'c', since=0, wait=30.0)
    assert server._parked
    sock.close()
    deadline = time.monotonic() + 5.0
    while server._parked:
        assert time.monotonic() < deadline, 'parked fetch outlived its connection'
        time.sleep(0.01)
    with KVClient(server.host, server.port) as client:
        assert client.publish('c', b'e') == 0
        assert client.ping()
    assert server.faulted_connections == 0


def test_stop_answers_a_parked_fetch_within_the_drain_timeout():
    server = KVServer(drain_timeout=1.0)
    server.start()
    client = KVClient(server.host, server.port)
    replies = []
    fetcher = threading.Thread(
        target=lambda: replies.append(client.fetch_events('s', 0, wait=5.0)),
    )
    fetcher.start()
    deadline = time.monotonic() + 5.0
    while not server._parked:
        assert time.monotonic() < deadline, 'the fetch never parked'
        time.sleep(0.01)
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < server.drain_timeout
    fetcher.join(timeout=2.0)
    assert not fetcher.is_alive(), 'the client hung on a parked fetch'
    assert _plain(replies) == [{'events': [], 'next_seq': 0, 'lost': 0}]
    client.close()
