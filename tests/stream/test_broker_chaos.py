"""Chaos test: SIGKILL the coordinator-designated broker mid-workload.

A three-broker fleet (real subprocesses, real sockets) serves a
partitioned topic with ``replicas=2``.  A consumer group works through
the stream; partway in, the broker currently acting as the group
coordinator is killed with SIGKILL — no goodbye, no flush.  The
replicated topic rings and mirrored coordinator state on the ring
successors must absorb the crash: every value is delivered, offsets
committed before the kill survive onto the new coordinator, and the
time from kill to the next successful delivery is recorded.
"""
from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time

import pytest

import repro
from repro.faults import FaultPlan

ITEMS = 36
PARTITIONS = 4
GROUP = 'broker-chaos-group'
TOPIC = 'broker-chaos-topic'


def _broker(ports_queue):
    """One broker subprocess: start a KVServer on an ephemeral port,
    report (pid, port), then idle until SIGKILLed (or told to exit)."""
    import os

    from repro.kvserver.server import KVServer

    server = KVServer(stream_retention=256)
    _host, port = server.start()
    ports_queue.put((os.getpid(), port))
    # Serve forever: the parent ends this process with kill()/terminate().
    while True:
        time.sleep(0.5)


@pytest.mark.chaos
@pytest.mark.timeout(180)
def test_sigkill_coordinator_broker_loses_nothing():
    from repro.stream import GroupConsumer
    from repro.stream import StreamProducer

    ctx = multiprocessing.get_context('spawn')
    ports_queue = ctx.Queue()
    brokers = [ctx.Process(target=_broker, args=(ports_queue,)) for _ in range(3)]
    for proc in brokers:
        proc.start()
    port_by_pid = dict(ports_queue.get(timeout=30) for _ in brokers)
    proc_by_port = {port_by_pid[proc.pid]: proc for proc in brokers}
    urls = [f'kv://127.0.0.1:{port}' for port in sorted(proc_by_port)]

    store = repro.store_from_url('local:///broker-chaos-store')
    consumer = None
    run = None
    try:
        producer = StreamProducer(
            store, urls, TOPIC, partitions=PARTITIONS, replicas=2,
        )
        producer.send_batch(list(range(ITEMS // 2)))

        consumer = GroupConsumer(
            store, urls, TOPIC,
            group=GROUP, partitions=PARTITIONS, replicas=2, timeout=30.0,
        )
        items = iter(consumer)
        got = []
        for _ in range(ITEMS // 4):
            got.append(int(next(items)))
            consumer.ack()
        committed_before = consumer.coordinator.fetch(consumer.router.topics)
        assert any(
            entry['committed'] > 0 for entry in committed_before.values()
        )

        # SIGKILL the broker acting as group coordinator — via a seeded
        # fault plan, the same mechanism bench_pipeline uses.
        victim = consumer.coordinator.acting_broker
        victim_port = int(victim.rsplit(':', 1)[1])
        victim_proc = proc_by_port[victim_port]
        plan = FaultPlan(seed=7).kill('coordinator', at=0.0)
        run = plan.start(pids={'coordinator': victim_proc.pid})
        run.join(timeout=10)
        assert run.report()[0]['error'] is None
        t_kill = time.monotonic()
        victim_proc.join(timeout=10)
        assert victim_proc.exitcode not in (0, None)  # died by signal

        # Keep the workload flowing through the failover.
        late = StreamProducer(
            store, urls, TOPIC, partitions=PARTITIONS, replicas=2,
        )
        late.send_batch(list(range(ITEMS // 2, ITEMS)))
        late.close(end=True)
        producer.close(end=False)

        recovery_s = None
        for proxy in items:
            if recovery_s is None:
                recovery_s = time.monotonic() - t_kill
            got.append(int(proxy))
            consumer.ack()
        assert recovery_s is not None, 'no delivery after the kill'

        # Zero lost events, exact coverage despite the dead broker.
        assert sorted(set(got)) == list(range(ITEMS))
        assert consumer.lost == 0
        assert consumer.coordinator.failovers >= 1
        assert consumer.coordinator.acting_broker != victim
        # Offsets committed before the kill survived onto the replica
        # coordinator — the group did not rewind past its acks.
        after = consumer.coordinator.fetch(consumer.router.topics)
        for topic, entry in committed_before.items():
            assert after[topic]['committed'] >= entry['committed']
        # Recovery time is the headline robustness metric: it must be a
        # real measurement, well inside the reconnect-policy envelope.
        assert 0.0 < recovery_s < 60.0
    finally:
        if run is not None:
            run.stop()
        if consumer is not None:
            consumer.close()
        store.close(clear=True)
        for proc in brokers:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=10)
