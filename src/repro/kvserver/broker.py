"""What a broker remembers about a topic and a group, and how it changes.

One copy of the stream tier's broker-side policy, shared by both
transports: the SimKV server (:mod:`repro.kvserver.server`) runs these
classes on its event-loop thread, the in-process bus
(:class:`repro.stream.bus.LocalEventBus`) runs the same classes under a
lock — so "same semantics, different transport" holds by construction,
not by keeping two implementations in step.

* :class:`TopicRing` — a topic's sequence counter and bounded retention
  ring (publish, explicit-seq replicated insert, catch-up read, trim).
* :class:`GroupState` — a consumer group's leased membership, generation,
  committed offsets, delivered watermarks and end markers.
* :data:`GROUP_COMMANDS` — the group commands: the :class:`GroupState`
  operation each runs and whether it is mirrored.
  :class:`~repro.stream.groups.GroupCoordinator` builds each command's
  option dict once, :meth:`GroupState.execute` runs it, and
  :meth:`GroupState.apply_delta` replays it on a replica.

The state classes are pure: no locks, no sockets, no clock — every method
that depends on time takes ``now`` (seconds, monotonic), so the caller
chooses the synchronisation and tests choose the time.  The module lives
in :mod:`repro.kvserver` rather than :mod:`repro.stream` because the
server must import it and ``repro.stream``'s package import reaches back
into ``repro.store`` (an import cycle while ``repro`` is loading).
"""
from __future__ import annotations

from collections import deque
from typing import Any
from typing import Sequence

from repro.exceptions import ConnectorError
from repro.exceptions import GroupMembershipError

__all__ = [
    'DEFAULT_SESSION_TIMEOUT',
    'GROUP_COMMANDS',
    'GroupState',
    'TopicRing',
]

#: Default seconds without a heartbeat before a group member is expired.
DEFAULT_SESSION_TIMEOUT = 10.0

#: Wire command -> (the :class:`GroupState` operation it runs, whether it
#: is mirrored).  A mirrored command changes the group, so its coordinator
#: replays it on the replica brokers as ``REPL_GROUP`` ``{'op': operation,
#: **options, 'generation': ...}`` (see :meth:`GroupState.apply_delta`).
GROUP_COMMANDS: dict[str, tuple[str, bool]] = {
    'GROUP_JOIN': ('join', True),
    'GROUP_HEARTBEAT': ('heartbeat', True),
    'GROUP_LEAVE': ('leave', True),
    'OFFSET_COMMIT': ('commit', True),
    'OFFSET_FETCH': ('fetch', False),
    'GROUP_STATS': ('stats', False),
}


def _check_values(options: dict[str, Any]) -> None:
    """Raise :class:`ConnectorError` before anything changes unless the
    positions, offsets, ends and generation are ints >= 0 (as ``FETCH``
    requires of ``since``) and a session timeout is ``None`` or positive."""
    timeout = options.get('session_timeout')
    if timeout is not None and not (isinstance(timeout, (int, float)) and timeout > 0):
        raise ConnectorError('session_timeout must be positive')
    for name in ('positions', 'offsets', 'ends'):
        values = options.get(name)
        if isinstance(values, dict) and not all(
            isinstance(n, int) and n >= 0 for n in values.values()
        ):
            raise ConnectorError(f'{name} must be ints >= 0')
    generation = options.get('generation', 0)
    if not (isinstance(generation, int) and generation >= 0):
        raise ConnectorError('generation must be an int >= 0')


def _nbytes(payload: Any) -> int:
    """Size of an event payload: one buffer, or the tuple of segments the
    SimKV server keeps a multi-segment payload as."""
    if isinstance(payload, tuple):
        return sum(len(segment) for segment in payload)
    return len(payload)


class TopicRing:
    """One topic's sequence counter and bounded retention ring.

    Retention is the explicit trade-off that keeps a slow consumer from
    growing broker memory: at most ``retention`` events are kept, older
    ones age out (counted in ``dropped_events``) and a reader that asks
    for them is told how many it lost.
    """

    __slots__ = ('next_seq', 'ring', 'ring_bytes', 'retention',
                 'dropped_events')

    def __init__(self, retention: int) -> None:
        #: Sequence number the next published event will receive.
        self.next_seq = 0
        #: Retained ``(seq, payload)`` pairs, oldest first.
        self.ring: deque[tuple[int, Any]] = deque()
        self.ring_bytes = 0
        self.retention = retention
        #: Events that aged out of the ring.
        self.dropped_events = 0

    def _trim(self) -> None:
        while len(self.ring) > self.retention:
            _, old = self.ring.popleft()
            self.ring_bytes -= _nbytes(old)
            self.dropped_events += 1

    def append(self, payload: Any) -> int:
        """Retain one event payload; returns its sequence number."""
        seq = self.next_seq
        self.next_seq += 1
        self.ring.append((seq, payload))
        self.ring_bytes += _nbytes(payload)
        self._trim()
        return seq

    def append_at(self, seq: int, payload: Any) -> bool:
        """Retain a *replicated* event at an explicit sequence number.

        Mirrors a primary broker's ring onto this replica with identical
        numbering.  Idempotent and tolerant of reordering: duplicates and
        events older than the ring's trim point are dropped (returns
        ``False``), out-of-order arrivals are inserted in sequence order,
        and ``next_seq`` only moves forward — so the ring always holds the
        newest ``retention`` events it was shown, whatever order they came
        in, and a replica promoted to primary continues the primary's
        numbering.
        """
        ring = self.ring
        # Arrivals are nearly ordered: find the insert point from the right.
        index = len(ring)
        while index > 0 and ring[index - 1][0] > seq:
            index -= 1
        if index > 0 and ring[index - 1][0] == seq:
            return False  # duplicate
        if index == 0 and len(ring) >= self.retention:
            # Older than everything retained, and no room left: in-order
            # arrival would have trimmed it by now.
            return False
        ring.insert(index, (seq, payload))
        self.ring_bytes += _nbytes(payload)
        self.next_seq = max(self.next_seq, seq + 1)
        self._trim()
        return True

    def since(self, seq: int, limit: int | None = None) -> tuple[list, int]:
        """Retained ``(seq, payload)`` pairs with ``seq >= seq``.

        Returns ``(events, lost)`` — at most ``limit`` events (``None``:
        all of them), and how many events aged out of the ring before a
        reader at ``seq`` could observe them.
        """
        oldest = self.ring[0][0] if self.ring else self.next_seq
        events = [event for event in self.ring if event[0] >= seq]
        if limit is not None:
            del events[limit:]
        return events, max(0, oldest - seq)

    @staticmethod
    def check_retention(retention: Any) -> int:
        """``retention`` if it can bound a ring: an int of at least 1.

        Both brokers call it before configuring a topic creates it, so a
        refused retention changes nothing.  Raises :class:`ValueError`
        otherwise.
        """
        if not isinstance(retention, int):
            raise ValueError('retention must be an int')
        if retention < 1:
            raise ValueError('retention must be at least 1')
        return retention

    def set_retention(self, retention: int) -> None:
        """Bound the ring to ``retention`` events, trimming immediately."""
        self.retention = self.check_retention(retention)
        self._trim()

    def stats(self) -> dict[str, int]:
        """The ring's counters (``TSTATS`` adds connection-level fields)."""
        return {
            'next_seq': self.next_seq,
            'ring_events': len(self.ring),
            'ring_bytes': self.ring_bytes,
            'retention': self.retention,
            'dropped_events': self.dropped_events,
        }


class GroupState:
    """One consumer group's coordinator state.

    Membership is leased: each member carries its own session timeout and
    a deadline refreshed by heartbeats (and commits).  Every operation
    first sweeps expired members, so death detection needs no timer —
    survivors heartbeat at a fraction of the session timeout and each
    beat doubles as the expiry check.  Every membership change bumps
    ``generation`` so clients know to recompute the partition assignment.
    Offsets are per partition topic: ``committed`` is the at-least-once
    replay point (advanced only by a commit, i.e. after the consumer
    acked), ``watermarks`` the furthest delivered position any member
    reported — the gap between them is exactly the un-acked window a
    successor must redeliver.
    """

    __slots__ = ('generation', 'members', 'committed', 'watermarks', 'ends',
                 'expired_members')

    def __init__(self) -> None:
        self.generation = 0
        #: member id -> (heartbeat deadline, session timeout seconds).
        self.members: dict[str, tuple[float, float]] = {}
        #: partition topic -> first un-acked sequence number.
        self.committed: dict[str, int] = {}
        #: partition topic -> furthest delivered position reported.
        self.watermarks: dict[str, int] = {}
        #: partition topic -> (end-marker seq, reporting member).  A
        #: partition is *finished* once its end is recorded and either
        #: committed reached it or the reporter is still a live member
        #: (it will ack; if it dies first, expiry re-opens the partition).
        self.ends: dict[str, tuple[int, str]] = {}
        #: Members removed by heartbeat expiry (not voluntary leaves).
        self.expired_members = 0

    # -- building blocks ---------------------------------------------------- #
    def _sweep(self, now: float) -> None:
        """Expire members whose heartbeat deadline passed."""
        dead = [m for m, (deadline, _) in self.members.items() if now > deadline]
        for member in dead:
            del self.members[member]
        if dead:
            self.expired_members += len(dead)
            self.generation += 1

    def _refresh(self, member: str, now: float, timeout: Any = None) -> bool:
        """Refresh (or create) ``member``'s lease; True if it was created."""
        known = member in self.members
        timeout = float(
            timeout
            or (self.members[member][1] if known else DEFAULT_SESSION_TIMEOUT),
        )
        self.members[member] = (now + timeout, timeout)
        return not known

    @staticmethod
    def _advance(current: dict[str, int], reported: Any) -> None:
        """Fold ``reported`` positions into ``current``, never backwards."""
        if isinstance(reported, dict):
            for topic, position in reported.items():
                if position > current.get(topic, 0):
                    current[topic] = position

    def _record_ends(self, member: str, ends: Any) -> None:
        """Record end-of-stream markers ``member`` delivered."""
        if isinstance(ends, dict):
            for topic, end_seq in ends.items():
                self.ends[topic] = (end_seq, member)

    def _view(self) -> dict[str, Any]:
        """The membership snapshot every mutating operation returns."""
        return {'generation': self.generation, 'members': sorted(self.members)}

    # -- operations --------------------------------------------------------- #
    def join(self, member: str, session_timeout: float | None, now: float) -> dict[str, Any]:
        """Register ``member`` (or renew its lease with a new timeout)."""
        self._sweep(now)
        if self._refresh(member, now, session_timeout or DEFAULT_SESSION_TIMEOUT):
            self.generation += 1
        return self._view()

    def heartbeat(self, member: str, positions: Any, ends: Any, now: float) -> dict[str, Any]:
        """Refresh ``member``'s lease, folding in what it reports.

        Raises:
            GroupMembershipError: the member was expired (or never
                joined) — it must rejoin and resync its assignment
                before consuming further.
        """
        self._sweep(now)
        if member not in self.members:
            raise GroupMembershipError(f'member {member!r} expired from the group')
        self._refresh(member, now)
        self._advance(self.watermarks, positions)
        self._record_ends(member, ends)
        return self._view()

    def leave(self, member: str, positions: Any, now: float) -> dict[str, Any]:
        """Deregister ``member`` voluntarily (immediate generation bump)."""
        self._sweep(now)
        if self.members.pop(member, None) is not None:
            self.generation += 1
        self._advance(self.watermarks, positions)
        return self._view()

    def commit(self, member: str, offsets: Any, positions: Any, ends: Any, now: float) -> dict[str, Any]:
        """Advance committed offsets (monotonic: stale commits are kept).

        A commit from a live member doubles as a heartbeat; one from an
        expired member still lands (its work *was* done) but does not
        resurrect the lease.
        """
        self._sweep(now)
        self._advance(self.committed, offsets)
        self._advance(self.watermarks, positions)
        self._record_ends(member, ends)
        if member in self.members:
            self._refresh(member, now)
        return self._view()

    def fetch(self, topics: Sequence[str], now: float) -> dict[str, dict[str, Any]]:
        """Per-topic ``committed`` / ``watermark`` / ``end`` / ``end_member``."""
        self._sweep(now)
        fetched = {}
        for topic in topics:
            end, end_member = self.ends.get(topic, (None, None))
            fetched[topic] = {
                'committed': self.committed.get(topic, 0),
                'watermark': self.watermarks.get(topic, 0),
                'end': end,
                'end_member': end_member,
            }
        return fetched

    def stats(self, now: float) -> dict[str, Any]:
        """The group's full state."""
        self._sweep(now)
        return {
            **self._view(),
            'committed': dict(self.committed),
            'watermarks': dict(self.watermarks),
            'ends': {topic: end for topic, (end, _) in self.ends.items()},
            'expired_members': self.expired_members,
        }

    def apply_delta(self, delta: dict[str, Any], now: float) -> dict[str, Any]:
        """Replay a mirrored group command *leniently*.

        ``delta`` is a mirrored command's options plus ``op``, its
        :data:`GROUP_COMMANDS` operation, and the primary's post-op
        ``generation``.  The member lease is created if missing (no error,
        and no generation bump — the primary's bump arrives as
        ``generation``), offsets merge monotonically and the generation
        only moves forward, so deltas may arrive late, duplicated or out
        of order without corrupting the replica's view.  A malformed
        value raises :class:`ConnectorError` and changes nothing.
        """
        _check_values(delta)
        self._sweep(now)
        self.generation = max(self.generation, delta.get('generation', 0))
        member = str(delta.get('member', ''))
        op = str(delta.get('op', 'heartbeat'))
        if member and op in ('join', 'heartbeat', 'commit'):
            self._refresh(member, now, delta.get('session_timeout'))
        elif member and op == 'leave':
            self.members.pop(member, None)
        self._advance(self.committed, delta.get('offsets'))
        self._advance(self.watermarks, delta.get('positions'))
        self._record_ends(member, delta.get('ends'))
        return self._view()

    def execute(self, command: str, options: dict[str, Any], now: float) -> Any:
        """Run one group command on the option dict its coordinator built.

        This is also where the options are checked, for both transports:
        a refused command changes nothing.

        Raises:
            ConnectorError: the options are malformed (no member id to
                join with, a malformed value, no offsets dict to commit,
                no topics list to fetch).
            ValueError: ``command`` is not in :data:`GROUP_COMMANDS`.
        """
        if command not in GROUP_COMMANDS:
            raise ValueError(f'unknown group command {command!r}')
        _check_values(options)
        op = GROUP_COMMANDS[command][0]
        member = str(options.get('member', ''))
        positions, ends = options.get('positions'), options.get('ends')
        if op == 'join':
            if not member:
                raise ConnectorError('GROUP_JOIN requires a member id')
            return self.join(member, options.get('session_timeout'), now)
        if op == 'heartbeat':
            return self.heartbeat(member, positions, ends, now)
        if op == 'leave':
            return self.leave(member, positions, now)
        if op == 'commit':
            offsets = options.get('offsets')
            if not isinstance(offsets, dict):
                raise ConnectorError('OFFSET_COMMIT requires an offsets dict')
            return self.commit(member, offsets, positions, ends, now)
        if op == 'fetch':
            topics = options.get('topics')
            if not isinstance(topics, (list, tuple)):
                raise ConnectorError('OFFSET_FETCH requires a topics list')
            if not all(isinstance(topic, str) for topic in topics):
                raise ConnectorError('OFFSET_FETCH topics must be strings')
            return self.fetch(topics, now)
        return self.stats(now)
