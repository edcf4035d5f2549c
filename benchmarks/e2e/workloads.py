"""The four closed-loop workloads (one client, loopback TCP to one KVServer).

Each workload generates its inputs from ``--seed`` before a block starts, so
the program under test only ever sees the inputs.  A *cycle* is one
closed-loop iteration: the next one starts only after the previous one has
been verified.  ``cycle`` returns whether the program's output was correct.

Exact counts (round trips, wire bytes) are taken on a *canonical* pass whose
access pattern is fixed; the seed there only changes keys, slot placement and
payload bytes, which is what lets the counts repeat bit-for-bit across seeds.
"""
from __future__ import annotations

import pickle
import random
from bisect import bisect
from collections import OrderedDict
from itertools import accumulate
from typing import Any

import numpy as np

from repro import Proxy
from repro import Store
from repro import resolve
from repro.serialize import serialize
from repro.serialize import to_bytes
from repro.stream import GroupConsumer
from repro.stream import KVEventBus
from repro.stream import StreamProducer
from tracing import Counts
from tracing import TracedBus
from tracing import TracedConnector
from tracing import timing_serializers

#: Ids start here so every id pickles to the same width (a 4-byte BININT):
#: wire-byte counts must not depend on how far a run got.
ID0 = 1 << 24


class Env:
    """One Store (plain or instrumented) plus whatever rides on it."""

    def __init__(self, store: Store, tracer: Any) -> None:
        self.store = store
        self.tracer = tracer
        self.bus: Any = None
        self.producer: Any = None
        self.consumer: Any = None
        self.events: Any = None


def open_store(
    port: int, tag: str, cache_size: int, tracer: Any, counts: Counts | None,
) -> Store:
    """A ``redis://`` Store named ``e2e-<tag>`` on the benchmark's server."""
    url = f'redis://127.0.0.1:{port}/e2e-{tag}?cache_size={cache_size}'
    if counts is None:
        return Store.from_url(url)
    serializer, deserializer = timing_serializers(tracer, counts)
    return Store.from_url(
        url,
        serializer=serializer,
        deserializer=deserializer,
        wrap_connector=lambda c: TracedConnector(c, tracer, counts),
    )


class Workload:
    """Shared shape of the four workloads."""

    name = ''
    items_per_cycle = 1
    cache_size = 16
    #: Cycles per timed block (sized so that twelve blocks fill the 26 s of a
    #: run on the machine the benchmark was sized on: about 2.2 s each), per
    #: ``--smoke`` block, per canonical pass.
    block_cycles = 0
    smoke_cycles = 0
    count_cycles = 0
    #: Bare KVClient set/get/delete loops timed in set-up (``raw_rtt_us``).
    raw_rtt_loops = 200

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.cycles = self.smoke_cycles if smoke else self.block_cycles
        if smoke:
            self.count_cycles = min(self.count_cycles, 256)
            self.raw_rtt_loops = 5

    def rng(self, *parts: Any) -> random.Random:
        # A str seed is hashed with SHA-512, independent of PYTHONHASHSEED.
        return random.Random(':'.join(str(p) for p in (self.seed, self.name, *parts)))

    # -- life cycle --------------------------------------------------------- #
    def preload(self, env: Env) -> None:
        """Store whatever must exist before the first cycle."""

    def unload(self, env: Env) -> None:
        """Remove what :meth:`preload` stored."""

    def open(self, port: int, tag: str, tracer: Any, counts: Counts | None) -> Env:
        return Env(open_store(port, tag, self.cache_size, tracer, counts), tracer)

    def close(self, env: Env) -> None:
        env.store.close()

    # -- inputs and checks -------------------------------------------------- #
    def inputs(self, block: int) -> list:
        """Seeded inputs of timed block ``block``."""
        raise NotImplementedError

    def canonical_inputs(self) -> list:
        """Inputs of the canonical (exact-count) pass."""
        return self.inputs(-1)[: self.count_cycles]

    def cycle(self, env: Env, inp: Any, tr: Any) -> bool:
        raise NotImplementedError

    def user_bytes(self, cycles: int) -> int:
        """Bytes of user payload carried by ``cycles`` cycles."""
        raise NotImplementedError

    def expected_round_trips(self, inputs: list) -> int:
        """Connector plus bus-publish calls ``inputs`` must cost, exactly."""
        raise NotImplementedError

    def sample_payload(self) -> bytes:
        """Serialized bytes of one typical item (for the raw KV floor)."""
        raise NotImplementedError

    def control_message_bytes(self, env: Env, counts: Counts) -> int:
        """Pickled size of what travels on the control path for one item.

        ``env`` is the plain (uninstrumented) env, whose proxies are the ones
        users would send; ``counts`` are the canonical pass's.
        """
        raise NotImplementedError

    def invariants(self, env: Env) -> list[str]:
        """Violations visible in ``env`` after its blocks (empty when fine)."""
        return []

    def stream_stats(self, env: Env) -> dict:
        """Delivery accounting of ``env``'s stream (zeros without one)."""
        return {'lost': 0, 'redelivered': 0, 'inline_share': 0.0}


def _roundtrip_proxy(proxy: Proxy, tr: Any) -> Proxy:
    """Pickle, unpickle and resolve ``proxy`` as a receiving task would."""
    span = tr.begin('proxy.dumps')
    wire = pickle.dumps(proxy)
    tr.end(span)
    span = tr.begin('proxy.loads')
    received = pickle.loads(wire)
    tr.end(span)
    span = tr.begin('store.resolve')
    resolve(received)
    tr.end(span)
    return received


class _RoundTrip(Workload):
    """proxy(evict=True) -> pickle -> unpickle -> resolve -> check."""

    def cycle(self, env: Env, inp: Any, tr: Any) -> bool:
        item_id, obj = self.materialize(inp)
        span = tr.begin('store.proxy')
        proxy = env.store.proxy(obj, evict=True)
        tr.end(span)
        return self.check(_roundtrip_proxy(proxy, tr), item_id)

    def materialize(self, inp: Any) -> tuple[int, Any]:
        raise NotImplementedError

    def check(self, received: Any, item_id: int) -> bool:
        raise NotImplementedError

    def expected_round_trips(self, inputs: list) -> int:
        return 3 * len(inputs)  # put, get, evict

    def control_message_bytes(self, env: Env, counts: Counts) -> int:
        _, obj = self.materialize(self.inputs(-1)[0])
        proxy = env.store.proxy(obj, evict=True)
        size = len(pickle.dumps(proxy))
        resolve(proxy)  # evict=True: resolving removes the key again
        return size

    def invariants(self, env: Env) -> list[str]:
        hits = env.store.cache_stats()['hits']
        return [f'{self.name}: {hits} cache hits on never-repeated keys'] if hits else []


class RtSmall(_RoundTrip):
    """A new 1 KB dict per item: fixed per-object cost does all the work."""

    name = 'rt_small'
    block_cycles = 6400
    smoke_cycles = 40
    count_cycles = 64
    blob_bytes = 1000

    def inputs(self, block: int) -> list:
        rng = self.rng(block)
        base = ID0 + (block + 1) * self.cycles
        return [
            (base + i, {'id': base + i, 'blob': rng.randbytes(self.blob_bytes)})
            for i in range(self.cycles)
        ]

    def materialize(self, inp: Any) -> tuple[int, Any]:
        return inp

    def check(self, received: Any, item_id: int) -> bool:
        return received['id'] == item_id and len(received['blob']) == self.blob_bytes

    def user_bytes(self, cycles: int) -> int:
        return self.blob_bytes * cycles

    def sample_payload(self) -> bytes:
        return to_bytes(serialize(self.inputs(-1)[0][1]))


class RtBulk(_RoundTrip):
    """A new 4 MiB float64 ndarray per item: byte moving does the work."""

    name = 'rt_bulk'
    block_cycles = 400
    smoke_cycles = 3
    count_cycles = 8
    raw_rtt_loops = 12
    elements = 4 * 1024 * 1024 // 8

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        # A block of distinct 4 MiB inputs would not fit in memory, so items
        # are drawn from a small seeded pool and stamped with their id.
        gen = np.random.default_rng(seed)
        self.pool = [gen.random(self.elements) for _ in range(4)]

    def inputs(self, block: int) -> list:
        rng = self.rng(block)
        base = ID0 + (block + 1) * self.cycles
        return [(base + i, rng.randrange(len(self.pool))) for i in range(self.cycles)]

    def materialize(self, inp: Any) -> tuple[int, Any]:
        item_id, index = inp
        arr = self.pool[index]
        arr[0] = item_id
        arr[-1] = -item_id
        return item_id, arr

    def check(self, received: Any, item_id: int) -> bool:
        return (
            received[0] == item_id
            and received[-1] == -item_id
            and received.nbytes == self.elements * 8
        )

    def user_bytes(self, cycles: int) -> int:
        return self.elements * 8 * cycles

    def sample_payload(self) -> bytes:
        return to_bytes(serialize(self.pool[0]))


class ReuseSkew(Workload):
    """Write-once-read-many: skewed reads of stored arrays, few overwrites.

    Zipf(1.1) over 512 stored 16 KB arrays through a 64-entry cache (working
    set 8x the cache); 5 % of cycles first replace the slot's value.
    """

    name = 'reuse_skew'
    cache_size = 64
    block_cycles = 18000
    smoke_cycles = 120
    count_cycles = 2048
    slots = 512
    elements = 2048
    zipf_s = 1.1
    write_share = 0.05

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.cum_weights = list(
            accumulate(1.0 / rank ** self.zipf_s for rank in range(1, self.slots + 1)),
        )
        self.slot_of_rank = list(range(self.slots))
        self.rng('placement').shuffle(self.slot_of_rank)
        self.base = np.random.default_rng(seed).random(self.elements)
        self.keys: list[Any] = []
        self.version: list[int] = []

    def _stamped(self, slot: int, version: int) -> np.ndarray:
        self.base[0] = slot
        self.base[1] = version
        return self.base

    def preload(self, env: Env) -> None:
        self.version = [0] * self.slots
        self.keys = env.store.put_batch(
            [self._stamped(slot, 0).copy() for slot in range(self.slots)],
        )

    def unload(self, env: Env) -> None:
        env.store.evict_batch(self.keys)
        self.keys = []

    def _draw(self, rng: random.Random, cycles: int) -> list:
        total = self.cum_weights[-1]
        return [
            (
                self.slot_of_rank[bisect(self.cum_weights, rng.random() * total)],
                rng.random() < self.write_share,
            )
            for _ in range(cycles)
        ]

    def inputs(self, block: int) -> list:
        return self._draw(self.rng(block), self.cycles)

    def canonical_inputs(self) -> list:
        # Ranks and write positions come from a constant, so cache hits and
        # round trips are the same for every seed; placement is seeded.
        return self._draw(random.Random('reuse_skew:canonical'), self.count_cycles)

    def cycle(self, env: Env, inp: Any, tr: Any) -> bool:
        slot, write = inp
        store = env.store
        if write:
            version = self.version[slot] + 1
            span = tr.begin('store.put')
            new_key = store.put(self._stamped(slot, version))
            tr.end(span)
            span = tr.begin('store.evict')
            store.evict(self.keys[slot])
            tr.end(span)
            self.keys[slot] = new_key
            self.version[slot] = version
        span = tr.begin('store.proxy')
        proxy = store.proxy_from_key(self.keys[slot])
        tr.end(span)
        received = _roundtrip_proxy(proxy, tr)
        return (
            received[0] == slot
            and received[1] == self.version[slot]
            and received.nbytes == self.elements * 8
        )

    def user_bytes(self, cycles: int) -> int:
        return self.elements * 8 * cycles

    def expected_round_trips(self, inputs: list) -> int:
        # The harness's own model of what the Store's cache must do, starting
        # empty: LRU over slots (a slot has one live key); an overwrite costs
        # a put and an evict and drops the slot's entry; a miss costs a get.
        lru: OrderedDict[int, None] = OrderedDict()
        trips = 0
        for slot, write in inputs:
            if write:
                trips += 2
                lru.pop(slot, None)
            if slot in lru:
                lru.move_to_end(slot)
                continue
            trips += 1
            lru[slot] = None
            if len(lru) > self.cache_size:
                lru.popitem(last=False)
        return trips

    def sample_payload(self) -> bytes:
        return to_bytes(serialize(self.base))

    def control_message_bytes(self, env: Env, counts: Counts) -> int:
        return len(pickle.dumps(env.store.proxy_from_key(self.keys[0])))


class StreamMixed(Workload):
    """put -> proxy -> publish -> deliver -> resolve -> ack, as one cycle.

    A cycle sends a batch of 32 (26 x 2 KB dicts that the ``auto`` policy
    inlines, 6 x 128 KB arrays that it proxies) to a 4-partition topic, pulls
    the 32 back through a single-member consumer group, touches each value
    and acks, so the backlog never exceeds one batch.
    """

    name = 'stream_mixed'
    items_per_cycle = 32
    bulk_per_cycle = 6
    partitions = 4
    block_cycles = 430
    smoke_cycles = 4
    count_cycles = 8
    small_bytes = 2048
    bulk_elements = 128 * 1024 // 8

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        gen = np.random.default_rng(seed)
        # One array per bulk position of a batch: each carries its own id.
        self.pool = [gen.random(self.bulk_elements) for _ in range(self.bulk_per_cycle)]

    def open(self, port: int, tag: str, tracer: Any, counts: Counts | None) -> Env:
        env = super().open(port, tag, tracer, counts)
        bus: Any = KVEventBus('127.0.0.1', port)
        if counts is not None:
            bus = TracedBus(bus, tracer, counts)
        topic = f'e2e-{tag}'
        env.bus = bus
        env.producer = StreamProducer(
            env.store, bus, topic, policy='auto', partitions=self.partitions,
        )
        env.consumer = GroupConsumer(
            env.store, bus, topic,
            group=f'e2e-{tag}', partitions=self.partitions, timeout=10.0,
        )
        env.events = env.consumer.events()
        return env

    def close(self, env: Env) -> None:
        env.events.close()
        env.consumer.close(ack_pending=True)
        env.producer.close(end=False)
        env.bus.close()
        env.store.close()

    def inputs(self, block: int) -> list:
        rng = self.rng(block)
        next_id = ID0 + (block + 1) * self.cycles * self.items_per_cycle
        batches = []
        for _ in range(self.cycles):
            bulk_at = set(rng.sample(range(self.items_per_cycle), self.bulk_per_cycle))
            ids = list(range(next_id, next_id + self.items_per_cycle))
            next_id += self.items_per_cycle
            smalls = {
                i: {'id': ids[i], 'blob': rng.randbytes(self.small_bytes)}
                for i in range(self.items_per_cycle) if i not in bulk_at
            }
            batches.append((ids, sorted(bulk_at), smalls))
        return batches

    def cycle(self, env: Env, inp: Any, tr: Any) -> bool:
        ids, bulk_at, smalls = inp
        objs: list[Any] = [smalls.get(i) for i in range(len(ids))]
        for arr, i in zip(self.pool, bulk_at):
            arr[0] = ids[i]
            objs[i] = arr
        span = tr.begin('stream.send')
        env.producer.send_batch(objs, metadata=[{'id': item_id} for item_id in ids])
        tr.end(span)
        pending = set(ids)
        ok = True
        events = env.events
        for _ in ids:
            span = tr.begin('stream.next')
            event, item = next(events)
            tr.end(span)
            item_id = event.metadata['id']
            if item_id not in pending:
                ok = False  # duplicate or foreign delivery
                continue
            pending.discard(item_id)
            if event.inline:
                ok = ok and item['id'] == item_id and len(item['blob']) == self.small_bytes
            else:
                span = tr.begin('store.resolve')
                resolve(item)
                tr.end(span)
                ok = ok and item[0] == item_id and item.nbytes == self.bulk_elements * 8
        span = tr.begin('stream.ack')
        env.consumer.ack()
        tr.end(span)
        return ok and not pending

    def user_bytes(self, cycles: int) -> int:
        per_cycle = (
            (self.items_per_cycle - self.bulk_per_cycle) * self.small_bytes
            + self.bulk_per_cycle * self.bulk_elements * 8
        )
        return per_cycle * cycles

    def expected_round_trips(self, inputs: list) -> int:
        # put_batch + one publish per partition + a get per proxied item +
        # the ack's evict_batch.
        return (1 + self.partitions + self.bulk_per_cycle + 1) * len(inputs)

    def sample_payload(self) -> bytes:
        return to_bytes(serialize({'id': ID0, 'blob': bytes(self.small_bytes)}))

    def control_message_bytes(self, env: Env, counts: Counts) -> int:
        # Every proxied item's event must pickle to one size, or the metric
        # would depend on which item was looked at.
        sizes = counts.proxied_event_bytes
        return next(iter(sizes)) if len(sizes) == 1 else -1

    def stream_stats(self, env: Env) -> dict:
        return {
            'lost': env.consumer.lost,
            'redelivered': env.consumer.redelivered,
            'inline_share': env.producer.inline_sends / max(1, env.producer.sent),
        }

    def invariants(self, env: Env) -> list[str]:
        stats = self.stream_stats(env)
        return [
            f'stream {what} {stats[what]} events'
            for what in ('lost', 'redelivered') if stats[what]
        ]


WORKLOADS = {w.name: w for w in (RtSmall, RtBulk, ReuseSkew, StreamMixed)}

__all__ = ['Env', 'WORKLOADS', 'Workload']
