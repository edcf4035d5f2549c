"""The broker commands' wire shapes, pinned against literals.

The topic and group state moved out of the server into
:mod:`repro.kvserver.broker`; what travels on the wire must not have
noticed.  ``TRANSCRIPT`` is the request value and reply of every group,
offset, replication and topic command as the server answered them *before*
the move (captured from that commit with the same script), and
``REJECTED`` is every check the server makes on what arrives from the
wire, with the error text old clients see.
"""
from __future__ import annotations

import pickle

import pytest

from repro.exceptions import ConnectorError
from repro.exceptions import GroupMembershipError
from repro.kvserver import KVClient
from repro.kvserver import KVServer

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
        'subscribers': 0, 'dropped_events': 4, 'dropped_pushes': 0,
        'reaped_subscribers': 0,
    }),
    ('TSTATS', 'nope', None, None),
    ('TCONFIG', 't', {'retention': 2}, {'retention': 2}),
    ('TSTATS', 't', None, {
        'next_seq': 8, 'ring_events': 2, 'ring_bytes': 4, 'retention': 2,
        'subscribers': 0, 'dropped_events': 6, 'dropped_pushes': 0,
        'reaped_subscribers': 0,
    }),
    ('REPL_PUBLISH', 'r',
     [(1, [b'a']), (3, [b'c']), (3, [b'c']), (2, [b'b'])],
     {'accepted': 3, 'next_seq': 4}),
    ('FETCH', 'r', {'since': 0, 'max_events': 0},
     {'events': [(1, b'a'), (2, b'b'), (3, b'c')], 'next_seq': 4, 'lost': 1}),
    ('TSTATS', 'r', None, {
        'next_seq': 4, 'ring_events': 3, 'ring_bytes': 3, 'retention': 4,
        'subscribers': 0, 'dropped_events': 0, 'dropped_pushes': 0,
        'reaped_subscribers': 0,
    }),
]

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


def test_broker_commands_keep_their_request_and_reply_shapes(server):
    with _RecordingClient(server.host, server.port) as c:
        c.group_join('g', 'm1', session_timeout=5.0)
        c.group_join('g', 'm2')
        c.group_heartbeat('g', 'm1', {'t.p0': 4}, {'t.p0': 9})
        c.group_heartbeat('g', 'm1')
        c.offset_commit('g', {'t.p0': 3}, member='m1',
                        positions={'t.p0': 4}, ends={'t.p1': 7})
        c.offset_commit('g', {'t.p0': 1})
        c.offset_fetch('g', ['t.p0', 't.p1', 't.p2'])
        c.group_leave('g', 'm2', {'t.p1': 2})
        c.group_leave('g', 'm2')
        c.group_stats('g')
        c.repl_group('g2', {'op': 'join', 'member': 'm1',
                            'session_timeout': 5.0, 'generation': 3})
        c.repl_group('g2', {'op': 'commit', 'member': 'm1',
                            'offsets': {'t.p0': 5}, 'positions': {'t.p0': 6},
                            'ends': {'t.p0': 9}, 'generation': 2})
        c.group_stats('g2')
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
        assert c.transcript == TRANSCRIPT


@pytest.mark.parametrize(('command', 'value', 'message'), REJECTED)
def test_server_rejects_malformed_wire_input(server, command, value, message):
    with KVClient(server.host, server.port) as client:
        with pytest.raises(ConnectorError) as caught:
            client._request(command, 'k', value)
        assert str(caught.value) == f'SimKV error: {message}'
        # Only the expired-member reply is typed; it is still a
        # ConnectorError for callers that predate the type.
        expired = command == 'GROUP_HEARTBEAT'
        assert isinstance(caught.value, GroupMembershipError) is expired
        assert client.ping()  # the connection survived the bad request
