"""Socket-free tests of the pure broker state (``repro.kvserver.broker``).

``TopicRing`` and ``GroupState`` take the clock as an argument and touch
no lock or socket, so every lease, generation, offset and retention rule
both transports share is checked here directly, with an injected ``now``.
"""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import GroupMembershipError
from repro.kvserver.broker import DEFAULT_SESSION_TIMEOUT
from repro.kvserver.broker import GroupState
from repro.kvserver.broker import TopicRing
from repro.stream import LocalEventBus
from repro.stream.groups import GroupCoordinator
from repro.stream.groups import PartitionRouter


# --------------------------------------------------------------------------- #
# GroupState
# --------------------------------------------------------------------------- #
def test_generation_bumps_on_every_membership_change_and_only_then():
    g = GroupState()
    assert g.join('a', 5.0, now=0.0) == {'generation': 1, 'members': ['a']}
    assert g.join('b', 5.0, now=1.0) == {'generation': 2, 'members': ['a', 'b']}
    # Re-joining and heartbeating change no membership: no bump.
    assert g.join('a', 5.0, now=2.0)['generation'] == 2
    assert g.heartbeat('b', {}, {}, now=3.0)['generation'] == 2
    assert g.leave('b', {}, now=4.0) == {'generation': 3, 'members': ['a']}
    # Leaving twice (or leaving as a stranger) is not a change either.
    assert g.leave('b', {}, now=4.0)['generation'] == 3


def test_lease_expires_strictly_after_its_deadline():
    g = GroupState()
    g.join('quiet', 1.0, now=0.0)
    g.join('alive', 10.0, now=0.0)
    # Exactly at the deadline the lease still holds ...
    assert g.heartbeat('alive', {}, {}, now=1.0)['members'] == ['alive', 'quiet']
    # ... one tick later it is gone: one bump, counted as an expiry.
    view = g.heartbeat('alive', {}, {}, now=1.0001)
    assert view == {'generation': 3, 'members': ['alive']}
    assert g.stats(now=1.0001)['expired_members'] == 1


def test_two_members_expiring_in_one_sweep_bump_the_generation_once():
    g = GroupState()
    g.join('a', 1.0, now=0.0)
    g.join('b', 1.0, now=0.0)
    stats = g.stats(now=5.0)
    assert stats['members'] == []
    assert stats['generation'] == 3
    assert stats['expired_members'] == 2


def test_heartbeat_refreshes_with_the_members_own_timeout():
    g = GroupState()
    g.join('a', 2.0, now=0.0)
    g.heartbeat('a', {}, {}, now=1.5)       # deadline moves to 3.5
    assert g.stats(now=3.4)['members'] == ['a']
    assert g.stats(now=3.6)['members'] == []


def test_join_without_a_timeout_gets_the_default_lease():
    g = GroupState()
    g.join('a', None, now=0.0)
    assert g.stats(now=DEFAULT_SESSION_TIMEOUT)['members'] == ['a']
    assert g.stats(now=DEFAULT_SESSION_TIMEOUT + 0.1)['members'] == []


def test_expired_member_must_rejoin():
    g = GroupState()
    g.join('a', 1.0, now=0.0)
    with pytest.raises(GroupMembershipError):
        g.heartbeat('a', {'t': 3}, {}, now=2.0)
    with pytest.raises(GroupMembershipError):
        g.heartbeat('never-joined', {}, {}, now=2.0)
    # The rejected beat reported nothing.
    assert g.fetch(['t'], now=2.0)['t']['watermark'] == 0
    assert g.join('a', 1.0, now=2.0) == {'generation': 3, 'members': ['a']}


def test_commits_are_monotonic_per_topic():
    g = GroupState()
    g.join('a', 5.0, now=0.0)
    g.commit('a', {'t.p0': 3, 't.p1': 1}, {}, {}, now=0.0)
    g.commit('a', {'t.p0': 1, 't.p1': 4}, {}, {}, now=0.0)   # p0 is stale
    fetched = g.fetch(['t.p0', 't.p1', 't.p2'], now=0.0)
    assert [fetched[t]['committed'] for t in fetched] == [3, 4, 0]


def test_watermark_is_the_furthest_position_anyone_reported():
    g = GroupState()
    g.join('a', 5.0, now=0.0)
    g.join('b', 5.0, now=0.0)
    g.heartbeat('a', {'t': 7}, {}, now=0.0)
    g.heartbeat('b', {'t': 4}, {}, now=0.0)          # behind: ignored
    g.commit('b', {'t': 2}, {'t': 9}, {}, now=0.0)   # commits report too
    g.leave('a', {'t': 8}, now=0.0)                  # and leaves
    assert g.fetch(['t'], now=0.0)['t'] == {
        'committed': 2, 'watermark': 9, 'end': None, 'end_member': None,
    }


def test_end_markers_remember_who_delivered_them():
    g = GroupState()
    g.join('a', 5.0, now=0.0)
    g.join('b', 5.0, now=0.0)
    g.heartbeat('a', {}, {'t.p0': 11}, now=0.0)
    g.commit('b', {}, {}, {'t.p1': 6}, now=0.0)
    fetched = g.fetch(['t.p0', 't.p1'], now=0.0)
    assert (fetched['t.p0']['end'], fetched['t.p0']['end_member']) == (11, 'a')
    assert (fetched['t.p1']['end'], fetched['t.p1']['end_member']) == (6, 'b')
    # A later claimant re-delivering the marker takes it over.
    g.heartbeat('b', {}, {'t.p0': 11}, now=0.0)
    assert g.fetch(['t.p0'], now=0.0)['t.p0']['end_member'] == 'b'
    assert g.stats(now=0.0)['ends'] == {'t.p0': 11, 't.p1': 6}


def test_a_commit_doubles_as_a_heartbeat_but_never_as_a_join():
    g = GroupState()
    g.join('a', 2.0, now=0.0)
    g.commit('a', {'t': 1}, {}, {}, now=1.5)          # lease now ends at 3.5
    assert g.stats(now=3.0)['members'] == ['a']
    # From an expired member the offsets still land (the work was done) ...
    view = g.commit('a', {'t': 5}, {}, {}, now=9.0)
    assert g.fetch(['t'], now=9.0)['t']['committed'] == 5
    # ... but the lease is not resurrected.
    assert view['members'] == []


def test_fetch_sweeps_first_so_a_dead_end_member_is_seen_dead():
    g = GroupState()
    g.join('a', 1.0, now=0.0)
    g.heartbeat('a', {}, {'t': 4}, now=0.5)
    before = g.stats(now=0.5)['generation']
    assert g.fetch(['t'], now=5.0)['t']['end_member'] == 'a'
    stats = g.stats(now=5.0)
    assert stats['members'] == [] and stats['generation'] == before + 1


def test_execute_runs_the_dicts_the_coordinator_builds():
    coordinator = GroupCoordinator('g', PartitionRouter('t', 1, LocalEventBus()))
    assert coordinator.join('a', session_timeout=5.0)['members'] == ['a']
    coordinator.heartbeat('a', {'t': 3}, {'t': 8})
    coordinator.commit('a', {'t': 2}, {})
    assert coordinator.fetch(['t']) == {
        't': {'committed': 2, 'watermark': 3, 'end': 8, 'end_member': 'a'},
    }
    coordinator.leave('a', {})
    stats = coordinator.stats()
    assert stats['members'] == [] and stats['generation'] == 2
    with pytest.raises(ValueError):
        GroupState().execute('GROUP_DANCE', {}, 0.0)


# -- replicated deltas ------------------------------------------------------ #
def test_apply_delta_creates_leases_quietly_and_only_moves_forward():
    g = GroupState()
    # A heartbeat delta for an unknown member creates the lease: no
    # error, and no bump — the primary's bump arrives as ``generation``.
    view = g.apply_delta({'op': 'heartbeat', 'member': 'a', 'generation': 4}, 0.0)
    assert view == {'generation': 4, 'members': ['a']}
    g.apply_delta({'op': 'commit', 'member': 'a', 'generation': 2,
                   'offsets': {'t': 5}, 'positions': {'t': 6}}, 0.0)
    g.apply_delta({'op': 'commit', 'member': 'a', 'generation': 4,
                   'offsets': {'t': 3}}, 0.0)            # late duplicate
    stats = g.stats(now=0.0)
    assert stats['generation'] == 4
    assert stats['committed'] == {'t': 5} and stats['watermarks'] == {'t': 6}
    assert g.apply_delta({'op': 'leave', 'member': 'a', 'generation': 5}, 0.0) == {
        'generation': 5, 'members': [],
    }


def test_mirrored_lease_expires_on_the_replica_too():
    g = GroupState()
    g.apply_delta({'op': 'join', 'member': 'a', 'session_timeout': 1.0,
                   'generation': 1}, 0.0)
    # A refresh without a timeout keeps the lease length the join set.
    g.apply_delta({'op': 'heartbeat', 'member': 'a', 'generation': 1}, 0.5)
    assert g.stats(now=1.4)['members'] == ['a']
    assert g.stats(now=1.6)['members'] == []


_TOPICS = st.sampled_from(['t.p0', 't.p1', 't.p2'])
_POSITIONS = st.dictionaries(_TOPICS, st.integers(0, 50), max_size=3)
#: Lease-refreshing deltas.  'leave' is left out on purpose: a leave that
#: overtakes the member's last heartbeat is *meant* to lose to it (the
#: recreated lease simply expires), so leaves do not commute.
_DELTAS = st.fixed_dictionaries({
    'op': st.sampled_from(['join', 'heartbeat', 'commit']),
    'member': st.sampled_from(['a', 'b', 'c']),
    'generation': st.integers(0, 20),
    'session_timeout': st.sampled_from([None, 5.0, 30.0]),
    'offsets': _POSITIONS,
    'positions': _POSITIONS,
})


@given(
    deltas=st.lists(_DELTAS, min_size=1, max_size=8),
    data=st.data(),
)
def test_mirrored_deltas_converge_in_any_order_with_duplicates(deltas, data):
    shuffled = data.draw(st.permutations(deltas + deltas[::2]))

    def converge(sequence):
        g = GroupState()
        for delta in sequence:
            g.apply_delta(dict(delta), 0.0)
        stats = g.stats(now=0.0)
        return (stats['generation'], stats['members'], stats['committed'],
                stats['watermarks'])

    assert converge(shuffled) == converge(deltas)


# --------------------------------------------------------------------------- #
# TopicRing
# --------------------------------------------------------------------------- #
def _seqs(ring):
    return [seq for seq, _ in ring.ring]


def test_append_numbers_events_and_trims_to_retention():
    ring = TopicRing(retention=3)
    assert [ring.append(b'x' * n) for n in range(1, 6)] == [0, 1, 2, 3, 4]
    assert _seqs(ring) == [2, 3, 4]
    assert ring.stats() == {
        'next_seq': 5, 'ring_events': 3, 'ring_bytes': 3 + 4 + 5,
        'retention': 3, 'dropped_events': 2,
    }


def test_since_reports_what_aged_out_before_the_reader_saw_it():
    ring = TopicRing(retention=3)
    for n in range(6):
        ring.append(b'%d' % n)
    assert ring.since(0) == ([(3, b'3'), (4, b'4'), (5, b'5')], 3)
    assert ring.since(3) == ([(3, b'3'), (4, b'4'), (5, b'5')], 0)
    assert ring.since(4, limit=1) == ([(4, b'4')], 0)
    assert ring.since(6) == ([], 0)
    assert ring.since(9) == ([], 0)        # ahead of the head: nothing lost
    assert TopicRing(retention=3).since(0) == ([], 0)


def test_set_retention_trims_immediately_and_rejects_nonsense():
    ring = TopicRing(retention=8)
    for n in range(6):
        ring.append(b'ab')
    ring.set_retention(2)
    assert _seqs(ring) == [4, 5]
    assert (ring.ring_bytes, ring.dropped_events) == (4, 4)
    ring.set_retention(5)                  # growing recovers nothing
    assert _seqs(ring) == [4, 5]
    with pytest.raises(ValueError):
        ring.set_retention(0)
    assert ring.retention == 5


def test_append_at_is_idempotent_and_reorder_tolerant():
    ring = TopicRing(retention=8)
    assert ring.append_at(2, b'c')
    assert ring.append_at(4, b'e')
    assert ring.append_at(3, b'd')         # out of order: inserted in place
    assert not ring.append_at(3, b'd')     # duplicate in the middle
    assert not ring.append_at(4, b'e')     # duplicate at the tail
    assert ring.append_at(1, b'b')         # older than the head, but room
    assert list(ring.ring) == [(1, b'b'), (2, b'c'), (3, b'd'), (4, b'e')]
    assert (ring.next_seq, ring.ring_bytes) == (5, 4)
    # A promoted replica continues the primary's numbering.
    assert ring.append(b'f') == 5


def test_append_at_drops_what_lies_below_the_trim_point():
    ring = TopicRing(retention=2)
    for seq in (5, 6, 7):
        ring.append_at(seq, b'x')
    assert _seqs(ring) == [6, 7]
    assert not ring.append_at(5, b'x')     # already trimmed away
    assert not ring.append_at(1, b'x')
    assert _seqs(ring) == [6, 7] and ring.next_seq == 8


@given(
    payloads=st.lists(st.binary(max_size=6), min_size=1, max_size=12),
    retention=st.integers(1, 14),
    data=st.data(),
)
def test_mirroring_in_any_order_with_duplicates_rebuilds_the_primary_ring(
    payloads, retention, data,
):
    primary = TopicRing(retention)
    entries = [(primary.append(p), p) for p in payloads]
    replica = TopicRing(retention)
    for seq, payload in data.draw(st.permutations(entries + entries[::2])):
        replica.append_at(seq, payload)
    assert list(replica.ring) == list(primary.ring)
    assert replica.next_seq == primary.next_seq
    assert replica.ring_bytes == primary.ring_bytes
