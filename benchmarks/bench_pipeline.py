"""Benchmark of a 3-stage pipeline surviving broker and consumer crashes.

The flagship robustness scenario: an **ingest -> transform -> index**
document pipeline runs over a three-broker fleet with ``replicas=2``
(every partition topic and both group coordinators mirrored onto a ring
successor), and mid-run a seeded fault plan SIGKILLs

* one **transform worker** (a real subprocess, killed without acking its
  in-flight window), and
* the **broker acting as the index group's coordinator** (a real broker
  subprocess, taking its partitions' primaries and its coordinator state
  with it).

Stage layout:

* **ingest** — the parent publishes ``DOCS`` synthetic documents to a
  partitioned topic through a replicated producer.
* **transform** — two subprocess workers form a consumer group over the
  ingest topic, tokenize each document, publish the result to the index
  topic (also replicated), and ack behind the publish so a crash can
  only duplicate work, never lose it.
* **index** — the parent drains the index topic through a second
  consumer group, deduplicating by document id into the final index.

Acceptance (recorded in the JSON):

* every document reaches the index despite both kills (coverage is
  complete, nothing counted lost at either group stage),
* offsets committed before the broker kill survive onto the replica
  coordinator (the group fails over instead of rewinding),
* recovery time — kill to next indexed document — is measured and
  bounded, and
* acked keys are evicted: the data-plane store ends empty.

Run directly (also used as a CI step)::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --out BENCH_pipeline.json
    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import threading
import time
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import repro  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402

PARTITIONS = 4
REPLICAS = 2
BROKERS = 3
DOCS = 160
SMOKE_DOCS = 48
INGEST_TOPIC = 'pipeline-ingest'
INDEX_TOPIC = 'pipeline-index'
TRANSFORM_GROUP = 'pipeline-transform'
INDEX_GROUP = 'pipeline-index'
STORE_NAME = 'pipeline-store'
WORKER_SESSION_TIMEOUT = 2.0
#: The victim transform worker paces slowly and never acks — the
#: worst-case crash state: its whole delivered window is un-acked when
#: the kill lands and must be redelivered.  The survivor runs flat out.
VICTIM_PACE_S = 0.05
VICTIM_ACK_EVERY = None
SURVIVOR_ACK_EVERY = 4
#: Kill the victim once it has delivered this many documents (plus one
#: heartbeat's grace, so the positions are watermarked as redelivery).
KILL_VICTIM_AFTER = 6

_WORDS = ('proxy', 'store', 'broker', 'replica', 'offset', 'cursor', 'ring')


def _document(i: int) -> dict[str, Any]:
    body = ' '.join(_WORDS[(i + k) % len(_WORDS)] for k in range(12))
    return {'doc': i, 'text': f'document {i}: {body}'}


def _broker_main(report_queue):
    """Broker subprocess: serve on an ephemeral port until SIGKILLed."""
    from repro.kvserver.server import KVServer

    server = KVServer(stream_retention=1024)
    _host, port = server.start()
    report_queue.put((os.getpid(), port))
    while True:
        time.sleep(0.5)


def _transform_worker(
    store_addr, broker_urls, member, pace, ack_every, report_queue,
):
    """Stage-2 subprocess: consume ingest docs, tokenize, publish to index.

    Acks *behind* the publish: a crash between publish and ack duplicates
    the document downstream (the index stage dedups), but never drops it.
    """
    from repro.exceptions import StoreKeyError
    from repro.stream import GroupConsumer
    from repro.stream import StreamProducer

    host, port = store_addr
    store = repro.store_from_url(f'redis://{host}:{port}/{STORE_NAME}')
    consumer = GroupConsumer(
        store, broker_urls, INGEST_TOPIC,
        group=TRANSFORM_GROUP, partitions=PARTITIONS, replicas=REPLICAS,
        member=member, session_timeout=WORKER_SESSION_TIMEOUT, timeout=120.0,
    )
    producer = StreamProducer(
        store, broker_urls, INDEX_TOPIC,
        partitions=PARTITIONS, replicas=REPLICAS,
    )
    report_queue.put(('joined', member, None))
    since_ack = 0
    transformed = 0
    skipped = 0
    for item in consumer:
        try:
            tokens = item['text'].split()
        except StoreKeyError:
            # Evicted key: acking is what evicts, so another member
            # already processed this document — skip, don't re-publish.
            skipped += 1
            continue
        producer.send({
            'doc': int(item['doc']),
            'tokens': len(tokens),
            'by': member,
        })
        report_queue.put(('val', member, int(item['doc'])))
        transformed += 1
        since_ack += 1
        if ack_every and since_ack >= ack_every:
            consumer.ack()
            since_ack = 0
        if pace:
            time.sleep(pace)
    consumer.ack()
    stats = consumer.stats()
    consumer.close()
    # No end markers from workers: the parent ends the index topic once
    # the surviving worker reports done (the victim never gets here).
    producer.close(end=False)
    store.close()
    report_queue.put((
        'done', member,
        {**stats, 'transformed': transformed, 'skipped': skipped},
    ))


def run_pipeline(docs: int, seed: int) -> dict[str, Any]:
    from repro.kvserver.server import KVServer
    from repro.stream import GroupConsumer
    from repro.stream import StreamProducer

    # The data-plane store lives on its own parent-owned server — the
    # chaos targets the *brokers* and a *consumer*; DIM-node crashes are
    # bench_fig6/test_cluster territory.
    store_server = KVServer()
    store_addr = store_server.start()
    store = repro.store_from_url(
        f'redis://{store_addr[0]}:{store_addr[1]}/{STORE_NAME}',
    )

    ctx = multiprocessing.get_context('spawn')
    ports_queue = ctx.Queue()
    brokers = [
        ctx.Process(target=_broker_main, args=(ports_queue,), daemon=True)
        for _ in range(BROKERS)
    ]
    for proc in brokers:
        proc.start()
    port_by_pid = dict(ports_queue.get(timeout=30) for _ in brokers)
    proc_by_port = {port_by_pid[proc.pid]: proc for proc in brokers}
    urls = [f'kv://127.0.0.1:{port}' for port in sorted(proc_by_port)]

    report_queue = ctx.Queue()
    workers = {
        name: ctx.Process(
            target=_transform_worker,
            args=(store_addr, urls, name, pace, ack_every, report_queue),
            daemon=True,
        )
        for name, pace, ack_every in (
            ('worker-victim', VICTIM_PACE_S, VICTIM_ACK_EVERY),
            ('worker-survivor', 0.0, SURVIVOR_ACK_EVERY),
        )
    }
    worker_stats: dict[str, dict[str, Any]] = {}
    joined: set[str] = set()
    for proc in workers.values():
        proc.start()
    deadline = time.monotonic() + 60.0
    while len(joined) < len(workers):
        kind, member, _ = report_queue.get(
            timeout=max(0.1, deadline - time.monotonic()),
        )
        if kind == 'joined':
            joined.add(member)
    # Let the membership converge on the split assignment before any
    # document exists: both workers must own their half when the kill
    # lands, so the victim's un-acked window is genuinely redelivered.
    time.sleep(1.0)

    # ---- Stage 1: ingest -------------------------------------------------
    started = time.perf_counter()
    ingest_started = started
    producer = StreamProducer(
        store, urls, INGEST_TOPIC, partitions=PARTITIONS, replicas=REPLICAS,
    )
    producer.send_batch([_document(i) for i in range(docs)])
    producer.close(end=True)
    ingest_s = time.perf_counter() - ingest_started

    # A watcher thread owns the worker-side chaos and the end-of-stream
    # bookkeeping, so the parent can keep draining the index consumer —
    # and killing brokers — meanwhile.  It SIGKILLs the victim once its
    # un-acked window is fat enough (after one heartbeat's grace, so the
    # positions are watermarked and the takeover counts as redelivery),
    # and ends the index topic once the survivor finishes stage 2 —
    # which includes redelivering the victim's window.
    progress: dict[str, int] = {}
    chaos: dict[str, Any] = {'worker_killed_at': None, 'faults': []}

    def _watch_transform_stage() -> None:
        watch = time.monotonic() + 300.0
        while time.monotonic() < watch:
            try:
                kind, member, payload = report_queue.get(timeout=1.0)
            except Exception:  # noqa: BLE001 - queue.Empty
                continue
            if kind == 'val':
                progress[member] = progress.get(member, 0) + 1
                if (
                    member == 'worker-victim'
                    and chaos['worker_killed_at'] is None
                    and progress[member] >= KILL_VICTIM_AFTER
                ):
                    time.sleep(0.6)  # one heartbeat reports the positions
                    run = FaultPlan(seed=seed).kill(
                        'transform-worker', at=0.0,
                    ).start(
                        pids={
                            'transform-worker': workers['worker-victim'].pid,
                        },
                    )
                    run.join(timeout=10)
                    chaos['faults'].extend(run.report())
                    chaos['worker_killed_at'] = time.perf_counter()
            elif kind == 'done':
                worker_stats[member] = payload
                if member == 'worker-survivor':
                    closer = StreamProducer(
                        store, urls, INDEX_TOPIC,
                        partitions=PARTITIONS, replicas=REPLICAS,
                    )
                    closer.close(end=True)
                    return

    watcher = threading.Thread(target=_watch_transform_stage)
    watcher.start()

    # ---- Stage 3: index, with faults injected mid-drain ------------------
    consumer = GroupConsumer(
        store, urls, INDEX_TOPIC,
        group=INDEX_GROUP, partitions=PARTITIONS, replicas=REPLICAS,
        member='indexer', timeout=120.0,
    )
    index: dict[int, int] = {}
    duplicates = 0
    broker_killed_at = None
    broker_recovery_s = None
    coordinator_failover_s = None
    victim_broker = None
    committed_before_kill: dict[str, Any] = {}
    plan_reports: list[dict[str, Any]] = []

    for item in consumer:
        now = time.perf_counter()
        if broker_killed_at is not None and broker_recovery_s is None:
            broker_recovery_s = now - broker_killed_at
        doc = int(item['doc'])
        if doc in index:
            duplicates += 1
        else:
            index[doc] = int(item['tokens'])
        consumer.ack()

        if (
            chaos['worker_killed_at'] is not None
            and broker_killed_at is None
            and len(index) >= docs // 2
        ):
            committed_before_kill = consumer.coordinator.fetch(
                consumer.router.topics,
            )
            victim_broker = consumer.coordinator.acting_broker
            victim_proc = proc_by_port[int(victim_broker.rsplit(':', 1)[1])]
            run = FaultPlan(seed=seed).kill('coordinator-broker', at=0.0).start(
                pids={'coordinator-broker': victim_proc.pid},
            )
            run.join(timeout=10)
            plan_reports.extend(run.report())
            broker_killed_at = time.perf_counter()
            # Time the coordinator failover itself: the next group call
            # must walk past the dead primary onto the replica.
            consumer.coordinator.fetch(consumer.router.topics)
            coordinator_failover_s = time.perf_counter() - broker_killed_at

    total_s = time.perf_counter() - started
    index_stats = consumer.stats()
    committed_after = consumer.coordinator.fetch(consumer.router.topics)
    failovers = consumer.coordinator.failovers
    acting_after = consumer.coordinator.acting_broker
    consumer.close()
    watcher.join(timeout=30)
    for proc in workers.values():
        proc.join(timeout=30)
    victim_exitcode = workers['worker-victim'].exitcode

    stranded = len(store_server)
    store.close()
    for proc in brokers:
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=10)
    store_server.stop()

    offsets_preserved = bool(committed_before_kill) and all(
        committed_after[topic]['committed'] >= entry['committed']
        for topic, entry in committed_before_kill.items()
    )
    survivor = worker_stats.get('worker-survivor', {})
    gates = {
        'coverage_complete': sorted(index) == list(range(docs)),
        'zero_lost': index_stats['lost'] == 0 and survivor.get('lost') == 0,
        'worker_killed_by_signal': victim_exitcode not in (0, None),
        'worker_redelivered': survivor.get('redelivered', 0) >= 1,
        'broker_failover_happened': failovers >= 1 and acting_after != victim_broker,
        'offsets_preserved_across_failover': offsets_preserved,
        'recovery_measured': (
            coordinator_failover_s is not None
            and 0.0 < coordinator_failover_s < 60.0
        ),
        'store_empty': stranded == 0,
    }
    return {
        'docs': docs,
        'brokers': BROKERS,
        'partitions': PARTITIONS,
        'replicas': REPLICAS,
        'seed': seed,
        'total_s': round(total_s, 4),
        'sustained_docs_per_s': round(len(index) / total_s, 1),
        'stages': {
            'ingest': {
                'docs': docs,
                'elapsed_s': round(ingest_s, 4),
                'docs_per_s': round(docs / ingest_s, 1),
            },
            'transform': {
                'survivor': survivor,
                'victim_exitcode': victim_exitcode,
            },
            'index': {
                **index_stats,
                'unique_docs': len(index),
                'duplicates': duplicates,
                'coordinator_failovers': failovers,
            },
        },
        'faults': chaos['faults'] + plan_reports,
        'recovery': {
            'coordinator_failover_s': (
                round(coordinator_failover_s, 4)
                if coordinator_failover_s is not None else None
            ),
            'broker_kill_to_next_indexed_s': (
                round(broker_recovery_s, 4)
                if broker_recovery_s is not None else None
            ),
            'killed_broker': victim_broker,
            'acting_coordinator_after': acting_after,
        },
        'stranded_keys': stranded,
        'gates': gates,
        'all_passed': all(gates.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--out', default='BENCH_pipeline.json')
    parser.add_argument(
        '--smoke', action='store_true',
        help='quick CI run: fewer documents, same two kills',
    )
    parser.add_argument(
        '--seed', type=int, default=1234,
        help='fault-plan seed (recorded in the report)',
    )
    args = parser.parse_args(argv)

    result = run_pipeline(SMOKE_DOCS if args.smoke else DOCS, args.seed)
    report = {
        'benchmark': 'pipeline_chaos',
        'python': sys.version.split()[0],
        'platform': platform.platform(),
        'smoke': args.smoke,
        **result,
    }
    with open(args.out, 'w') as f:
        json.dump(report, f, indent=2)
    recovery = result['recovery']['coordinator_failover_s']
    print(
        f'wrote {args.out} ({result["sustained_docs_per_s"]} docs/s '
        f'sustained through both kills, coordinator failover '
        f'{recovery}s, gates passed: {result["all_passed"]})',
    )
    return 0 if report['all_passed'] else 1


if __name__ == '__main__':
    raise SystemExit(main())
