"""Benchmark of streaming proxy channels versus inline-payload events.

Compares two ways to stream items from a producer to a consumer:

* **proxy** — each item's bulk data goes through the data-plane store (a
  4-node sharded DIM store) and only a tiny key+metadata event rides the
  broker; the consumer resolves proxies with a small prefetch window.
* **inline** — the serialized item is embedded in the event itself, so
  every payload byte crosses the event broker twice (publish + push), the
  classic "data rides the message bus" design.

Both run against servers in *separate processes* behind the same network
emulator as ``bench_kv_transport`` (constant latency, leaky-bucket
bandwidth per link), because on a bare in-process loopback every design is
equally memcpy-bound.  Links are paced to 0.5 Gbps so the Python client's
own per-item overhead (~100 MB/s at 1 MB items) does not mask the
architecture effect; the broker gets one link, each DIM node its own —
the deployment shape where decoupling data flow from the event stream
pays.  The inline baseline runs in its best configuration per size
(batched publishes for small items, per-item for large).

A third scenario exercises the **consumer-group** layer over the same
emulator: a partitioned topic is drained by 1 then 4 single-process group
members (separate Python processes — one consumer's throughput is bound by
its own sequential per-item round trips, which is exactly what a group
parallelizes), and a 3-member group has one member SIGKILLed mid-workload
to measure at-least-once redelivery.

Acceptance (recorded in the JSON):

* proxy streaming sustains **>= 2x MB/s** over inline events at >= 1 MB
  items,
* a slow consumer cannot grow broker memory without bound — the per-topic
  ring retention is enforced while the consumer stalls, and the consumer
  still converges afterwards (events beyond retention counted as lost),
* a 4-member consumer group sustains **>= 3x delivered-MB/s** over a
  single member on the same partitioned topic, and
* killing 1 of 3 group members mid-run loses zero events: survivors
  redeliver the victim's un-acked window and coverage stays complete.

Run directly (also used as a CI step)::

    PYTHONPATH=src python benchmarks/bench_stream.py --out BENCH_stream.json
    PYTHONPATH=src python benchmarks/bench_stream.py --smoke
"""
from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import queue
import sys
import threading
import time
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_kv_transport import _spawn_nodes  # noqa: E402

from repro.connectors.zmq import ZMQConnector  # noqa: E402
from repro.dim.node import reset_nodes  # noqa: E402
from repro.kvserver.server import KVServer  # noqa: E402
from repro.store import Store  # noqa: E402
from repro.stream import GroupConsumer  # noqa: E402
from repro.stream import KVEventBus  # noqa: E402
from repro.stream import StreamConsumer  # noqa: E402
from repro.stream import StreamProducer  # noqa: E402

ONE_WAY_LATENCY_S = 0.0002
LINK_BANDWIDTH_BPS = 62_500_000  # 0.5 Gbps per emulated link
N_DATA_NODES = 4
SHARD_THRESHOLD = 512 * 1024
PREFETCH = 6

#: (label, nbytes, item count, proxy batch, inline batch) per sweep point.
#: ``None`` batch = per-item sends (the inline baseline's best mode for
#: large items; batching is its best mode for small ones).
SWEEP = [
    ('1KB', 1024, 500, 64, 64),
    ('1MB', 1 << 20, 32, 8, None),
    ('8MB', 1 << 23, 8, 4, None),
    ('64MB', 1 << 26, 3, None, None),
]
SMOKE_SWEEP = [
    ('1KB', 1024, 200, 64, 64),
    ('1MB', 1 << 20, 20, 4, None),
]

#: Sweep points at or below this size also run ``policy='auto'`` — the
#: adaptive route must match the inline baseline in the small regime.
AUTO_POINT_MAX_BYTES = 1024
#: ``--gate`` bound: auto must reach this fraction of inline MB/s at 1 KB.
#: The committed full-run JSON shows >= 1.0x; the margin absorbs runner
#: noise only.
AUTO_GATE_MIN_RATIO = 0.9

#: Runs per (mode, size); the fastest is kept.  As in bench_kv_transport,
#: scheduling interference (emulator pumps, node processes, and the
#: client share the cores) only ever adds time, so best-of is the
#: cleanest estimate of each design's capability.
REPETITIONS = 3

# Consumer-group scenario parameters.  The group fleet uses a *longer*
# wire (5 ms one-way: a metro-area hop) and sub-shard items: each member
# resolves its items one round trip at a time (prefetch 0, one get per
# item on one node), so a single member is latency-bound — the regime
# where splitting the partitions across member processes parallelizes the
# per-item round trips and delivered-MB/s scales with the member count.
GROUP_ONE_WAY_LATENCY_S = 0.005
GROUP_PARTITIONS = 4
GROUP_ITEM_BYTES = 128 * 1024
GROUP_ITEMS = 192
GROUP_SMOKE_ITEMS = 96
GROUP_SESSION_TIMEOUT = 10.0
GROUP_NAME = 'bench-group'
#: Ring placement over the peer nodes (sub-shard items would otherwise be
#: pinned to the producer's *local* in-process node, which forked member
#: processes inherit — resolving would be a memcpy, not a network fetch).
GROUP_RING_VNODES = 64
#: Commit/evict every N items — amortizes the ack round trips the same
#: way for every fleet size, so the scaling ratio measures the data path.
GROUP_ACK_EVERY = 8
KILL_ITEMS = 32
KILL_SESSION_TIMEOUT = 1.5


def _run_stream(
    mode: str,
    nbytes: int,
    count: int,
    batch: int | None,
    broker_addr: tuple[str, int],
    peers: list,
    tag: str,
) -> dict[str, Any]:
    """One producer->consumer run; returns wall time and delivered bytes."""
    gc.collect()  # level the field: no run pays for a prior run's garbage
    connector = ZMQConnector(
        f'bench-client-{tag}',
        peers=peers,
        shard_threshold=SHARD_THRESHOLD,
        pool_size=2,
    )
    store = Store(f'stream-bench-{tag}', connector, cache_size=0)
    bus = KVEventBus(
        *broker_addr, retention=max(8, count), poll_interval=0.05,
    )
    topic = f'bench-{tag}'
    consumer = StreamConsumer(
        store, bus, topic,
        from_seq=0,
        timeout=300.0,
        prefetch=PREFETCH if mode == 'proxy' else 0,
    )
    consumer._sync_claims()  # subscribe before the clock starts
    policy = {'proxy': 'proxy', 'inline': 'inline', 'auto': 'auto'}[mode]
    producer = StreamProducer(store, bus, topic, policy=policy)
    payload = b'\xab' * nbytes

    def produce() -> None:
        if batch:
            items = [payload] * count
            for i in range(0, count, batch):
                producer.send_batch(items[i:i + batch])
        else:
            for _ in range(count):
                producer.send(payload)
        producer.close()

    start = time.perf_counter()
    feeder = threading.Thread(target=produce)
    feeder.start()
    delivered_bytes = 0
    delivered = 0
    for item in consumer:
        data = item if isinstance(item, (bytes, bytearray)) else bytes(item)
        delivered_bytes += len(data)
        delivered += 1
    feeder.join()
    elapsed = time.perf_counter() - start
    assert delivered == count, f'{mode}: delivered {delivered}/{count}'
    assert delivered_bytes == count * nbytes
    store.close(clear=True)
    bus.close()
    return {
        'elapsed_s': round(elapsed, 4),
        'MBps': round(delivered_bytes / elapsed / 1e6, 1),
        'events_per_s': round(count / elapsed, 1),
    }


def bench_throughput(sweep: list) -> list[dict[str, Any]]:
    """Proxy vs inline events/s and MB/s across payload sizes."""
    procs, addresses = _spawn_nodes(
        1 + N_DATA_NODES,
        latency_s=ONE_WAY_LATENCY_S,
        bandwidth_bps=LINK_BANDWIDTH_BPS,
    )
    broker_addr, node_addrs = addresses[0], addresses[1:]
    peers = [
        (f'bench-node-{i}', host, port)
        for i, (host, port) in enumerate(node_addrs)
    ]
    results = []
    try:
        for label, nbytes, count, proxy_batch, inline_batch in sweep:
            entry: dict[str, Any] = {
                'size': label,
                'payload_bytes': nbytes,
                'items': count,
            }
            entry['proxy'] = min(
                (
                    _run_stream(
                        'proxy', nbytes, count, proxy_batch,
                        broker_addr, peers, f'proxy-{label}-{rep}',
                    )
                    for rep in range(REPETITIONS)
                ),
                key=lambda run: run['elapsed_s'],
            )
            # Interleave inline and auto repetitions so both modes see the
            # same broker state (topics and rings accumulate over a sweep;
            # running one mode strictly after the other would bias the
            # later one).  Small sweep points compare policy='auto' against
            # the inline baseline: the adaptive policy must route these
            # items inline and match its throughput (the sub-threshold
            # fast path), while still being the same producer that proxies
            # large items.
            run_auto = nbytes <= AUTO_POINT_MAX_BYTES
            inline_runs: list[dict[str, Any]] = []
            auto_runs: list[dict[str, Any]] = []
            for rep in range(REPETITIONS):
                modes = ['inline'] + (['auto'] if run_auto else [])
                if rep % 2:  # alternate order to cancel ordering bias
                    modes.reverse()
                for mode in modes:
                    runs = inline_runs if mode == 'inline' else auto_runs
                    runs.append(_run_stream(
                        mode, nbytes, count, inline_batch,
                        broker_addr, peers, f'{mode}-{label}-{rep}',
                    ))
            entry['inline'] = min(
                inline_runs, key=lambda run: run['elapsed_s'],
            )
            entry['speedup_MBps'] = round(
                entry['proxy']['MBps'] / entry['inline']['MBps'], 2,
            )
            entry['passes_2x'] = (
                nbytes < (1 << 20) or entry['speedup_MBps'] >= 2.0
            )
            if run_auto:
                entry['auto'] = min(
                    auto_runs, key=lambda run: run['elapsed_s'],
                )
                entry['auto_vs_inline_MBps'] = round(
                    entry['auto']['MBps'] / entry['inline']['MBps'], 2,
                )
                entry['passes_auto'] = (
                    entry['auto_vs_inline_MBps'] >= AUTO_GATE_MIN_RATIO
                )
            results.append(entry)
            auto_note = (
                f'   auto {entry["auto"]["MBps"]:>7.1f} MB/s '
                f'({entry["auto_vs_inline_MBps"]:.2f}x inline)'
                if 'auto' in entry else ''
            )
            print(
                f'{label:>5}: proxy {entry["proxy"]["MBps"]:>7.1f} MB/s '
                f'({entry["proxy"]["events_per_s"]:>8.1f} ev/s)   '
                f'inline {entry["inline"]["MBps"]:>7.1f} MB/s '
                f'({entry["inline"]["events_per_s"]:>8.1f} ev/s)   '
                f'speedup {entry["speedup_MBps"]:>5.2f}x{auto_note}',
            )
    finally:
        for proc in procs:
            proc.terminate()
        reset_nodes()
    return results


def bench_backpressure(*, retention: int = 8, events: int = 64) -> dict[str, Any]:
    """A stalled consumer must not grow broker memory beyond retention.

    1 MB inline events against a tiny ring: while the consumer sleeps, the
    broker drops pushes at the highwater mark and ages events out of the
    ring — broker memory stays bounded.  When the consumer resumes it
    converges on the stream head, with everything beyond retention counted
    as lost rather than silently skipped.
    """
    nbytes = 1 << 20
    server = KVServer(stream_retention=retention)
    host, port = server.start()
    assert server.port is not None
    # A tiny local queue makes the consumer genuinely stall its TCP stream,
    # engaging the server's highwater push-dropping as well as the ring.
    bus = KVEventBus(host, port, poll_interval=0.05, max_queued_batches=2)
    bus.configure_topic('backpressure', retention=retention)
    subscription = bus.subscribe('backpressure')
    payload = b'\xcd' * nbytes
    peak_ring_bytes = 0
    for _ in range(events):
        bus.publish('backpressure', payload)
        stats = bus.topic_stats('backpressure')
        assert stats is not None
        peak_ring_bytes = max(peak_ring_bytes, stats['ring_bytes'])
    time.sleep(0.3)  # consumer is stalled the whole time
    stats = bus.topic_stats('backpressure')
    assert stats is not None
    bound_bytes = retention * nbytes
    # Consumer resumes: it must converge on the head via ring catch-up.
    seen: list[int] = []
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        seen.extend(seq for seq, _ in subscription.next_batch(timeout=1.0))
        if seen and seen[-1] == events - 1:
            break
    delivered = len(seen)
    lost = subscription.lost
    subscription.close()
    bus.close()
    server.stop()
    result = {
        'event_bytes': nbytes,
        'events': events,
        'retention': retention,
        'retention_bound_bytes': bound_bytes,
        'peak_ring_bytes': peak_ring_bytes,
        'final_ring_bytes': stats['ring_bytes'],
        'dropped_pushes': stats['dropped_pushes'],
        'consumer_delivered': delivered,
        'consumer_lost': lost,
        'retention_bound_enforced': (
            peak_ring_bytes <= bound_bytes and delivered + lost == events
        ),
    }
    print(
        f'backpressure: ring peaked at {peak_ring_bytes >> 20} MiB '
        f'(bound {bound_bytes >> 20} MiB), {stats["dropped_pushes"]} pushes '
        f'dropped, consumer recovered {delivered} + lost {lost} of {events} '
        f'-> bound enforced: {result["retention_bound_enforced"]}',
    )
    return result


# --------------------------------------------------------------------------- #
# Consumer-group scenarios
# --------------------------------------------------------------------------- #
def _group_member_main(
    report: Any,
    gate: Any,
    member: str,
    broker_addr: tuple[str, int],
    peers: list,
    topic: str,
    pace: float,
    ack_every: int | None,
    session_timeout: float,
) -> None:
    """Subprocess body: one group member draining its partitions.

    Joins the group at construction, reports ``('joined', ...)``, then
    waits for the parent's gate so every fleet size starts from a
    converged membership.  Emits ``('val', member, i)`` per item (the
    parent's coverage ledger) and a final ``('done', member, stats)``.
    """
    connector = ZMQConnector(
        f'bench-group-{member}',
        peers=peers,
        shard_threshold=SHARD_THRESHOLD,
        ring_vnodes=GROUP_RING_VNODES,
        pool_size=2,
    )
    store = Store('stream-group-bench', connector, cache_size=0)
    bus = KVEventBus(*broker_addr, poll_interval=0.05)
    consumer = GroupConsumer(
        store, bus, topic,
        group=GROUP_NAME,
        partitions=GROUP_PARTITIONS,
        member=member,
        session_timeout=session_timeout,
        timeout=120.0,
    )
    report.put(('joined', member, None))
    gate.wait()
    consumer.refresh()
    started = time.time()
    ended = started
    delivered_bytes = 0
    since_ack = 0
    for item in consumer:
        report.put(('val', member, int(item['i'])))
        delivered_bytes += len(item['data'])
        since_ack += 1
        if ack_every and since_ack >= ack_every:
            consumer.ack()
            since_ack = 0
        # Timestamp the last *processed* item: iteration only returns once
        # the whole group converges on done, and that coordination tail
        # (0.1 s poll quanta) is not part of the delivered-MB/s data path.
        ended = time.time()
        if pace:
            time.sleep(pace)
    if ack_every:
        consumer.ack()
    stats = consumer.stats()
    consumer.close()
    report.put((
        'done', member,
        {**stats, 'bytes': delivered_bytes, 'start': started, 'end': ended},
    ))
    store.close()
    bus.close()


def _publish_group_topic(
    broker_addr: tuple[str, int],
    peers: list,
    topic: str,
    count: int,
    nbytes: int,
) -> None:
    """Publish ``count`` items round-robin across the partition topics."""
    connector = ZMQConnector(
        f'bench-group-producer-{topic}',
        peers=peers,
        shard_threshold=SHARD_THRESHOLD,
        ring_vnodes=GROUP_RING_VNODES,
        pool_size=2,
    )
    store = Store('stream-group-bench', connector, cache_size=0)
    bus = KVEventBus(
        *broker_addr, retention=max(64, count), poll_interval=0.05,
    )
    producer = StreamProducer(
        store, bus, topic, partitions=GROUP_PARTITIONS,
    )
    payload = b'\xee' * nbytes
    for i in range(count):
        producer.send({'i': i, 'data': payload})
    producer.close()
    bus.close()
    store.close()  # no clear: members evict the keys as they ack


def _run_group_fleet(
    members: list[tuple[str, float, int | None]],
    topic: str,
    count: int,
    nbytes: int,
    broker_addr: tuple[str, int],
    peers: list,
    session_timeout: float,
    kill: str | None = None,
    kill_after_vals: int = 2,
    kill_grace_s: float = 0.5,
) -> dict[str, Any]:
    """Publish ``count`` items, then drain them with a group-member fleet.

    ``members`` is ``(name, pace_seconds, ack_every_or_None)`` per member.
    With ``kill=<name>``, that member is SIGKILLed once it has reported
    ``kill_after_vals`` items plus a heartbeat's grace — mid-workload, so
    its un-acked window must be redelivered to the survivors.
    """
    _publish_group_topic(broker_addr, peers, topic, count, nbytes)
    context = multiprocessing.get_context('fork')
    report = context.Queue()
    gate = context.Event()
    procs = {
        name: context.Process(
            target=_group_member_main,
            args=(
                report, gate, name, broker_addr, peers, topic,
                pace, ack_every, session_timeout,
            ),
            daemon=True,
        )
        for name, pace, ack_every in members
    }
    for proc in procs.values():
        proc.start()
    joined: set[str] = set()
    deadline = time.monotonic() + 60.0
    while len(joined) < len(procs):
        kind, member, _ = report.get(timeout=max(0.1, deadline - time.monotonic()))
        assert kind == 'joined', kind
        joined.add(member)
    gate.set()
    values: dict[str, list[int]] = {name: [] for name in procs}
    stats: dict[str, dict[str, Any]] = {}
    killed = False
    expected_done = len(procs) - (1 if kill else 0)
    deadline = time.monotonic() + 300.0
    while len(stats) < expected_done:
        assert time.monotonic() < deadline, (
            f'group fleet stalled: done={sorted(stats)}, '
            f'values={ {m: len(v) for m, v in values.items()} }'
        )
        try:
            kind, member, payload = report.get(timeout=1.0)
        except queue.Empty:
            continue
        if kind == 'val':
            values[member].append(payload)
        elif kind == 'done':
            stats[member] = payload
        if kill and not killed and len(values[kill]) >= kill_after_vals:
            # One more heartbeat reports the victim's delivered positions
            # (the group watermark survivors count redelivery against).
            time.sleep(kill_grace_s)
            procs[kill].kill()
            killed = True
    for name, proc in procs.items():
        proc.join(timeout=10.0)
        if kill and name == kill:
            assert proc.exitcode not in (0, None), 'victim exited cleanly'
        else:
            assert proc.exitcode == 0, f'{name} exited {proc.exitcode}'
    elapsed = (
        max(s['end'] for s in stats.values())
        - min(s['start'] for s in stats.values())
    )
    return {'values': values, 'stats': stats, 'elapsed_s': elapsed}


def bench_group_scaling(
    broker_addr: tuple[str, int],
    peers: list,
    count: int,
    repetitions: int,
) -> dict[str, Any]:
    """Delivered-MB/s of 1 vs 4 group members over one partitioned topic."""
    runs = []
    for n_members in (1, 4):
        best: dict[str, Any] | None = None
        for rep in range(repetitions):
            topic = f'bench-group-scale-{n_members}-{rep}'
            members = [
                (f'scale{n_members}r{rep}-m{i}', 0.0, GROUP_ACK_EVERY)
                for i in range(n_members)
            ]
            run = _run_group_fleet(
                members, topic, count, GROUP_ITEM_BYTES,
                broker_addr, peers, GROUP_SESSION_TIMEOUT,
            )
            seen = {v for vals in run['values'].values() for v in vals}
            assert seen == set(range(count)), (
                f'{n_members} members: incomplete coverage '
                f'({len(seen)}/{count})'
            )
            entry = {
                'elapsed_s': round(run['elapsed_s'], 4),
                'MBps': round(count * GROUP_ITEM_BYTES / run['elapsed_s'] / 1e6, 1),
                'delivered': sum(s['delivered'] for s in run['stats'].values()),
                'redelivered': sum(
                    s['redelivered'] for s in run['stats'].values()
                ),
                'lost': sum(s['lost'] for s in run['stats'].values()),
            }
            if best is None or entry['elapsed_s'] < best['elapsed_s']:
                best = entry
        assert best is not None
        runs.append({'consumers': n_members, **best})
        print(
            f'group x{n_members}: {best["MBps"]:>6.1f} MB/s '
            f'({best["delivered"]} delivered, '
            f'{best["redelivered"]} redelivered)',
        )
    scaling = round(runs[1]['MBps'] / runs[0]['MBps'], 2)
    return {
        'items': count,
        'item_bytes': GROUP_ITEM_BYTES,
        'partitions': GROUP_PARTITIONS,
        'ack_every': GROUP_ACK_EVERY,
        'runs': runs,
        'scaling_MBps_4_over_1': scaling,
        'passes_3x_at_4': scaling >= 3.0,
    }


def bench_group_kill(
    broker_addr: tuple[str, int],
    peers: list,
    count: int = KILL_ITEMS,
) -> dict[str, Any]:
    """SIGKILL 1 of 3 group members mid-workload; survivors must cover all.

    The victim (named to sort first, so round-robin assigns it two of the
    four partitions) paces slowly and never acks — the worst case: its
    whole delivered window is un-acked when the kill lands.  Survivors
    must redeliver it from the committed offsets after lease expiry, so
    their coverage alone spans every item, with zero events lost.
    """
    victim = 'a-victim'
    members: list[tuple[str, float, int | None]] = [
        (victim, 0.2, None),
        ('surv-1', 0.01, 4),
        ('surv-2', 0.01, 4),
    ]
    run = _run_group_fleet(
        members, 'bench-group-kill', count, GROUP_ITEM_BYTES,
        broker_addr, peers, KILL_SESSION_TIMEOUT, kill=victim,
    )
    survivor_seen = {
        v for name, vals in run['values'].items()
        for v in vals if name != victim
    }
    coverage_complete = survivor_seen == set(range(count))
    redelivered = sum(s['redelivered'] for s in run['stats'].values())
    lost = sum(s['lost'] for s in run['stats'].values())
    result = {
        'items': count,
        'item_bytes': GROUP_ITEM_BYTES,
        'members': len(members),
        'killed': victim,
        'victim_delivered_before_kill': len(run['values'][victim]),
        'survivor_delivered': sum(
            s['delivered'] for s in run['stats'].values()
        ),
        'redelivered': redelivered,
        'deduplicated': sum(
            s['deduplicated'] for s in run['stats'].values()
        ),
        'lost': lost,
        'elapsed_s': round(run['elapsed_s'], 4),
        'at_least_once_held': coverage_complete and lost == 0 and redelivered >= 1,
    }
    print(
        f'group kill: victim died after {result["victim_delivered_before_kill"]} '
        f'items un-acked, survivors redelivered {redelivered}, lost {lost} '
        f'-> at-least-once held: {result["at_least_once_held"]}',
    )
    return result


def bench_group(smoke: bool) -> dict[str, Any]:
    """Consumer-group scaling + kill-one-member, on a fresh emulated fleet."""
    procs, addresses = _spawn_nodes(
        1 + N_DATA_NODES,
        latency_s=GROUP_ONE_WAY_LATENCY_S,
        bandwidth_bps=LINK_BANDWIDTH_BPS,
    )
    broker_addr, node_addrs = addresses[0], addresses[1:]
    peers = [
        (f'bench-gnode-{i}', host, port)
        for i, (host, port) in enumerate(node_addrs)
    ]
    try:
        scaling = bench_group_scaling(
            broker_addr, peers,
            GROUP_SMOKE_ITEMS if smoke else GROUP_ITEMS,
            1 if smoke else REPETITIONS,
        )
        kill = bench_group_kill(broker_addr, peers)
    finally:
        for proc in procs:
            proc.terminate()
        reset_nodes()
    return {
        'emulation': {
            'one_way_latency_s': GROUP_ONE_WAY_LATENCY_S,
            'link_bandwidth_Gbps': round(LINK_BANDWIDTH_BPS * 8 / 1e9, 2),
            'data_nodes': N_DATA_NODES,
        },
        'scaling': scaling,
        'kill_one_consumer': kill,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--out', default='BENCH_stream.json')
    parser.add_argument(
        '--smoke',
        action='store_true',
        help='quick CI run: 1KB and 1MB points and a smaller group '
             'scaling sweep (the kill-one-consumer scenario runs in full)',
    )
    parser.add_argument(
        '--gate',
        action='store_true',
        help=f'exit non-zero unless policy=auto reaches '
             f'{AUTO_GATE_MIN_RATIO}x of inline MB/s on the small sweep '
             f'points',
    )
    args = parser.parse_args(argv)

    throughput = bench_throughput(SMOKE_SWEEP if args.smoke else SWEEP)
    backpressure = bench_backpressure()
    consumer_group = bench_group(args.smoke)

    passes_2x = all(entry['passes_2x'] for entry in throughput)
    passes_auto = all(
        entry.get('passes_auto', True) for entry in throughput
    )
    report = {
        'benchmark': 'stream_channels',
        'python': sys.version.split()[0],
        'platform': platform.platform(),
        'smoke': args.smoke,
        'emulation': {
            'one_way_latency_s': ONE_WAY_LATENCY_S,
            'link_bandwidth_Gbps': round(LINK_BANDWIDTH_BPS * 8 / 1e9, 2),
            'data_nodes': N_DATA_NODES,
            'shard_threshold': SHARD_THRESHOLD,
            'prefetch': PREFETCH,
        },
        'throughput': throughput,
        'passes_2x_at_1MB_plus': passes_2x,
        'passes_auto_at_small': passes_auto,
        'backpressure': backpressure,
        'consumer_group': consumer_group,
    }
    with open(args.out, 'w') as f:
        json.dump(report, f, indent=2)
    print(
        f'wrote {args.out} (>=2x at >=1MB: {passes_2x}, auto at small '
        f'sizes: {passes_auto}, retention bound '
        f'enforced: {backpressure["retention_bound_enforced"]}, group '
        f'scaling {consumer_group["scaling"]["scaling_MBps_4_over_1"]}x '
        f'at 4 consumers, at-least-once held: '
        f'{consumer_group["kill_one_consumer"]["at_least_once_held"]})',
    )
    if args.gate and not passes_auto:
        failing = [
            f'{e["size"]} auto {e["auto_vs_inline_MBps"]:.2f}x inline'
            for e in throughput if not e.get('passes_auto', True)
        ]
        print(f'GATE FAILED: {failing}')
        return 1
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
