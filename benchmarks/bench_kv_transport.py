"""Benchmark of the concurrent SimKV transport (Fig. 6's transport axis).

Two scenarios, run against KV node servers in *separate processes* behind a
small in-benchmark network emulator (constant per-connection latency and a
leaky-bucket per-node bandwidth cap), because on a bare in-process loopback
there is no network to win back — every transport is equally CPU-bound:

1. **Pipelining** — 16 threads share one client issuing 1 KiB set/get pairs
   over a 0.5 ms one-way wire.  The baseline is the pre-concurrency client
   (one connection, one lock, one round trip at a time — kept inline below);
   the pipelined client keeps many requests in flight on the same
   connection.  Acceptance: >= 3x ops/sec.

2. **Sharding** — a 256 MiB object is put/get against a 4-node DIM store
   whose nodes are each paced to 1 Gbps, the commodity-NIC regime where
   striping pays (one Python client process can drive ~400 MB/s through
   the emulator, so a faster per-node fabric would let the client core
   mask the effect).  The single-node transfer uses one node's bandwidth;
   the striped transfer uses all four in parallel.  Acceptance: sharded
   beats single-node for both put and get.

3. **Chaos (kill one node)** — a replicated (``replicas=2``) cluster over
   3 node processes serves a read workload; one node process is killed
   with SIGKILL mid-run.  Recorded: replication overhead at put/get time
   (``replicas=2`` vs ``replicas=1`` over the same ring — the honest
   cost — timed in alternating blocks and reported as the median of the
   per-block put-rate ratios, ``put_overhead_factor``), degraded-mode
   throughput while failing over, lost keys (must be zero), and recovery
   time until the background rebalancer restored full replication on the
   survivors.

Run directly (also used as a CI step)::

    PYTHONPATH=src python benchmarks/bench_kv_transport.py --out BENCH_kv.json
    PYTHONPATH=src python benchmarks/bench_kv_transport.py --smoke --gate

``--smoke`` shrinks the sweep (fewer ops, 32 MiB payload) for CI.  With
``--gate`` the run exits non-zero unless the pipelined client reaches 3x
the serialized one (which leans on the follower wake-up: 16 threads share
one connection) and the chaos scenario lost no key.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import queue
import socket
import statistics
import sys
import threading
import time
from typing import Any

from repro.connectors.zmq import ZMQConnector
from repro.dim.node import reset_nodes
from repro.kvserver.client import KVClient
from repro.kvserver.protocol import StreamDecoder
from repro.kvserver.protocol import send_message
from repro.kvserver.server import KVServer

ONE_WAY_LATENCY_S = 0.0005          # 0.5 ms: an intra-site hop
NODE_BANDWIDTH_BPS = 125_000_000    # 1 Gbps per DIM node
N_NODES = 4


# --------------------------------------------------------------------------- #
# Network emulator: constant latency + leaky-bucket bandwidth per node
# --------------------------------------------------------------------------- #
class EmulatedLink:
    """TCP proxy adding one-way latency and an aggregate bandwidth cap."""

    CHUNK = 256 * 1024

    def __init__(
        self,
        upstream: tuple[str, int],
        *,
        latency_s: float = 0.0,
        bandwidth_bps: float | None = None,
    ) -> None:
        self.upstream = upstream
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self._pace_lock = threading.Lock()
        self._next_free = 0.0
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(('127.0.0.1', 0))
        self.listener.listen(128)
        self.address = self.listener.getsockname()
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self) -> None:
        while True:
            try:
                downstream, _addr = self.listener.accept()
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.upstream)
            except OSError:
                downstream.close()
                continue
            for a, b in ((downstream, upstream), (upstream, downstream)):
                a.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                pipe: queue.Queue = queue.Queue()
                threading.Thread(
                    target=self._pump_in, args=(a, pipe), daemon=True,
                ).start()
                threading.Thread(
                    target=self._pump_out, args=(b, pipe), daemon=True,
                ).start()

    def _due_time(self, nbytes: int) -> float:
        """Leaky-bucket pacing shared by every connection through this link."""
        now = time.perf_counter()
        if self.bandwidth_bps is None:
            return now + self.latency_s
        with self._pace_lock:
            self._next_free = max(now, self._next_free) + nbytes / self.bandwidth_bps
            return self._next_free + self.latency_s

    def _pump_in(self, sock: socket.socket, pipe: queue.Queue) -> None:
        while True:
            try:
                chunk = sock.recv(self.CHUNK)
            except OSError:
                chunk = b''
            pipe.put((self._due_time(len(chunk)), chunk))
            if not chunk:
                return

    def _pump_out(self, sock: socket.socket, pipe: queue.Queue) -> None:
        while True:
            due, chunk = pipe.get()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if not chunk:
                try:
                    sock.close()
                except OSError:
                    pass
                return
            try:
                sock.sendall(chunk)
            except OSError:
                return


def _node_main(
    index: int, report: Any, latency_s: float, bandwidth_bps: float | None,
) -> None:
    """Subprocess body: one KV node server behind an emulated link."""
    server = KVServer()
    server.start()
    assert server.port is not None
    link = EmulatedLink(
        (server.host, server.port),
        latency_s=latency_s,
        bandwidth_bps=bandwidth_bps,
    )
    report.put((index, link.address))
    while True:  # killed by the parent
        time.sleep(3600)


def _spawn_nodes(
    count: int, *, latency_s: float, bandwidth_bps: float | None,
) -> tuple[list, list[tuple[str, int]]]:
    context = multiprocessing.get_context('fork')
    report = context.Queue()
    procs = [
        context.Process(
            target=_node_main, args=(i, report, latency_s, bandwidth_bps),
            daemon=True,
        )
        for i in range(count)
    ]
    for proc in procs:
        proc.start()
    # Nodes report in the order they come up: ``addresses[i]`` must be
    # ``procs[i]``'s, or the chaos run kills another node than its victim.
    addresses = dict(report.get(timeout=30) for _ in procs)
    return procs, [addresses[i] for i in range(count)]


# --------------------------------------------------------------------------- #
# The serialized baseline: the pre-concurrency KVClient, kept verbatim
# --------------------------------------------------------------------------- #
class SerializedBaselineClient:
    """One connection, one lock, one round trip at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()
        self._decoder = StreamDecoder()
        self._next_id = 0

    def request(self, command: str, key: str | None = None, value: Any = None) -> Any:
        with self._lock:
            self._next_id += 1
            send_message(self.sock, (self._next_id, command, key, value))
            response = self._decoder.read_message(self.sock)
            assert response is not None and response[1] == 'ok', response
            return response[2]

    def close(self) -> None:
        self.sock.close()


# --------------------------------------------------------------------------- #
# Scenario 1: pipelined small operations
# --------------------------------------------------------------------------- #
def bench_pipelining(*, threads: int, ops_per_thread: int, payload: bytes) -> dict:
    procs, addresses = _spawn_nodes(
        1, latency_s=ONE_WAY_LATENCY_S, bandwidth_bps=None,
    )
    host, port = addresses[0]
    try:
        def run(request) -> float:
            import pickle

            def worker(n: int) -> None:
                for i in range(ops_per_thread):
                    request('SET', f'{n}:{i}', [pickle.PickleBuffer(payload)])
                    request('GET', f'{n}:{i}')

            pool = [
                threading.Thread(target=worker, args=(i,)) for i in range(threads)
            ]
            start = time.perf_counter()
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            elapsed = time.perf_counter() - start
            return threads * ops_per_thread * 2 / elapsed

        baseline = SerializedBaselineClient(host, port)
        serialized_ops = run(baseline.request)
        baseline.close()

        pipelined = KVClient(host, port)
        pipelined_ops = run(
            lambda command, key=None, value=None: pipelined._request(
                command, key, value,
            ),
        )
        pipelined.close()
    finally:
        for proc in procs:
            proc.terminate()

    speedup = pipelined_ops / serialized_ops
    return {
        'threads': threads,
        'ops_per_thread': ops_per_thread,
        'payload_bytes': len(payload),
        'one_way_latency_s': ONE_WAY_LATENCY_S,
        'serialized_ops_per_s': round(serialized_ops, 1),
        'pipelined_ops_per_s': round(pipelined_ops, 1),
        'speedup': round(speedup, 2),
        'passes_3x': speedup >= 3.0,
    }


# --------------------------------------------------------------------------- #
# Scenario 2: sharded large transfers across a 4-node DIM store
# --------------------------------------------------------------------------- #
def bench_sharding(*, payload_bytes: int, repetitions: int) -> dict:
    payload = bytes(bytearray(range(256)) * (payload_bytes // 256))
    procs, addresses = _spawn_nodes(
        N_NODES, latency_s=0.0001, bandwidth_bps=NODE_BANDWIDTH_BPS,
    )
    peers = [
        (f'node-{i}', host, port) for i, (host, port) in enumerate(addresses)
    ]
    try:
        def measure(peer_list: list) -> dict:
            client = ZMQConnector(
                'bench-client',
                peers=peer_list,
                shard_threshold=1024 * 1024,
                pool_size=2,
            )
            put_times, get_times = [], []
            try:
                for _ in range(repetitions):
                    start = time.perf_counter()
                    key = client.put(payload)
                    put_times.append(time.perf_counter() - start)
                    start = time.perf_counter()
                    got = client.get(key)
                    materialized = bytes(got)
                    get_times.append(time.perf_counter() - start)
                    assert materialized == payload, 'shard integrity violated'
                    client.evict(key)
            finally:
                client.close()
            # Best-of: scheduling interference on small machines (the
            # emulator, node processes and client share the cores) only
            # ever adds time, so the fastest repetition is the cleanest
            # estimate of each configuration's capability.
            put_s = min(put_times)
            get_s = min(get_times)
            return {
                'shards': len(peer_list),
                'put_s': round(put_s, 4),
                'get_s': round(get_s, 4),
                'put_MBps': round(payload_bytes / put_s / 1e6, 1),
                'get_MBps': round(payload_bytes / get_s / 1e6, 1),
            }

        single = measure(peers[:1])
        sharded = measure(peers)
    finally:
        for proc in procs:
            proc.terminate()
        reset_nodes()

    put_speedup = single['put_s'] / sharded['put_s']
    get_speedup = single['get_s'] / sharded['get_s']
    return {
        'nodes': N_NODES,
        'payload_bytes': payload_bytes,
        'node_bandwidth_Gbps': round(NODE_BANDWIDTH_BPS * 8 / 1e9, 2),
        'single_node': single,
        'sharded': sharded,
        'put_speedup': round(put_speedup, 2),
        'get_speedup': round(get_speedup, 2),
        'passes_sharded_beats_single': put_speedup > 1.0 and get_speedup > 1.0,
    }


# --------------------------------------------------------------------------- #
# Scenario 3: chaos — kill one replicated node mid-workload
# --------------------------------------------------------------------------- #
def _replication_overhead(
    peers: list, *, payload: bytes, blocks: int, block_ops: int,
) -> tuple[dict, float]:
    """Put/get rates at ``replicas=1`` and ``replicas=2``, and their put ratio.

    Same ring, same remote nodes, one copy vs two.  ``replicas=1`` uses
    ring placement (not the local-node path), so both configurations pay a
    remote round trip and the delta is the honest cost of the second copy.
    The two run in alternating blocks of ``block_ops`` puts (then gets),
    the first of each pair swapped every block, so host drift lands on
    both sides; the factor is the median of the per-block put-rate ratios.
    """
    clients = {
        replicas: ZMQConnector(
            f'bench-overhead-{replicas}',
            peers=peers,
            replicas=replicas,
            ring_vnodes=64,
            rebalance=False,
        )
        for replicas in (1, 2)
    }
    rates: dict[int, dict[str, list[float]]] = {
        replicas: {'put': [], 'get': []} for replicas in clients
    }
    ratios = []
    try:
        for client in clients.values():  # warm-up: connect to every node
            client.evict_batch([client.put(payload) for _ in range(len(peers))])
        for block in range(blocks):
            for replicas in (1, 2) if block % 2 == 0 else (2, 1):
                client = clients[replicas]
                start = time.perf_counter()
                keys = [client.put(payload) for _ in range(block_ops)]
                rates[replicas]['put'].append(block_ops / (time.perf_counter() - start))
                start = time.perf_counter()
                for key in keys:
                    assert client.get(key) is not None
                rates[replicas]['get'].append(block_ops / (time.perf_counter() - start))
                client.evict_batch(keys)
            ratios.append(rates[1]['put'][-1] / rates[2]['put'][-1])
    finally:
        for client in clients.values():
            client.close()
    overhead = {
        f'replicas_{replicas}': {
            f'{op}_ops_per_s': round(statistics.median(samples), 1)
            for op, samples in by_op.items()
        }
        for replicas, by_op in rates.items()
    }
    return overhead, statistics.median(ratios)


def bench_chaos(*, n_keys: int, ops: int) -> dict:
    payload = b'x' * 4096
    procs, addresses = _spawn_nodes(3, latency_s=0.0001, bandwidth_bps=None)
    peers = [
        (f'node-{i}', host, port) for i, (host, port) in enumerate(addresses)
    ]
    try:
        overhead, put_cost = _replication_overhead(
            peers, payload=payload, blocks=8, block_ops=max(10, ops // 4),
        )

        # Chaos run: read workload over a replicated key set, then SIGKILL
        # the node holding the most primaries with no warning.
        client = ZMQConnector(
            'bench-chaos',
            peers=peers,
            replicas=2,
            hedge_threshold=0.02,
        )
        try:
            keys = client.put_batch([payload] * n_keys)

            def read_all() -> tuple[float, int]:
                lost = 0
                start = time.perf_counter()
                for key in keys:
                    value = client.get(key)
                    if value is None or bytes(value) != payload:
                        lost += 1
                return n_keys / (time.perf_counter() - start), lost

            healthy_ops, _ = read_all()

            primaries = [key.replicas[0].node_id for key in keys]
            victim = max(set(primaries), key=primaries.count)
            victim_index = next(
                i for i, (node_id, _, _) in enumerate(peers)
                if node_id == victim
            )
            kill_time = time.perf_counter()
            procs[victim_index].kill()
            procs[victim_index].join()

            degraded_ops, lost = read_all()

            # Recovery: the crash discovered by the reads above triggered
            # the rebalancer; wait for it and verify full re-replication.
            recovered = client._cluster.rebalancer.wait_idle(120)
            survivors = [node_id for node_id, _, _ in peers if node_id != victim]
            under_replicated = sum(
                1 for key in keys
                if sum(
                    1 for node_id in survivors
                    if client._cluster.client.backend(node_id).exists(key.object_id)
                ) < 2
            )
            recovery_s = time.perf_counter() - kill_time
            stats = client._cluster.client.stats.as_dict()
            rebalance = client._cluster.rebalancer.stats.as_dict()
        finally:
            client.close()
    finally:
        for proc in procs:
            proc.terminate()
        reset_nodes()

    return {
        'nodes': 3,
        'replicas': 2,
        'n_keys': n_keys,
        'payload_bytes': len(payload),
        'overhead': overhead,
        'put_overhead_factor': round(put_cost, 2),
        'healthy_ops_per_s': round(healthy_ops, 1),
        'degraded_ops_per_s': round(degraded_ops, 1),
        'lost_keys': lost,
        'recovery_s': round(recovery_s, 3),
        'under_replicated_after_recovery': under_replicated,
        'cluster_stats': stats,
        'rebalance_stats': rebalance,
        'passes_zero_lost': lost == 0
        and under_replicated == 0
        and recovered,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--out', default='BENCH_kv.json')
    parser.add_argument(
        '--smoke',
        action='store_true',
        help='quick CI run: fewer ops and a 32 MiB sharded payload',
    )
    parser.add_argument(
        '--gate',
        action='store_true',
        help='exit non-zero unless pipelined >= 3x serialized and the '
             'chaos scenario lost no key',
    )
    args = parser.parse_args(argv)

    ops = 40 if args.smoke else 150
    sharded_bytes = 32 * 1024 * 1024 if args.smoke else 256 * 1024 * 1024
    repetitions = 3 if args.smoke else 4

    pipelining = bench_pipelining(
        threads=16, ops_per_thread=ops, payload=b'x' * 1024,
    )
    print(
        f'pipelining: serialized {pipelining["serialized_ops_per_s"]:.0f} ops/s   '
        f'pipelined {pipelining["pipelined_ops_per_s"]:.0f} ops/s   '
        f'speedup {pipelining["speedup"]:.2f}x (>=3x: {pipelining["passes_3x"]})',
    )

    sharding = bench_sharding(payload_bytes=sharded_bytes, repetitions=repetitions)
    print(
        f'sharding ({sharding["payload_bytes"] >> 20} MiB, '
        f'{sharding["nodes"]} nodes @ {sharding["node_bandwidth_Gbps"]} Gbps): '
        f'put {sharding["single_node"]["put_MBps"]:.0f} -> '
        f'{sharding["sharded"]["put_MBps"]:.0f} MB/s ({sharding["put_speedup"]:.2f}x)   '
        f'get {sharding["single_node"]["get_MBps"]:.0f} -> '
        f'{sharding["sharded"]["get_MBps"]:.0f} MB/s ({sharding["get_speedup"]:.2f}x)',
    )

    chaos = bench_chaos(n_keys=40 if args.smoke else 150, ops=ops)
    print(
        f'chaos (kill 1 of {chaos["nodes"]}, replicas={chaos["replicas"]}): '
        f'healthy {chaos["healthy_ops_per_s"]:.0f} ops/s   '
        f'degraded {chaos["degraded_ops_per_s"]:.0f} ops/s   '
        f'lost {chaos["lost_keys"]}   '
        f'recovered in {chaos["recovery_s"]:.2f}s   '
        f'replication put cost {chaos["put_overhead_factor"]:.2f}x '
        f'(zero-lost: {chaos["passes_zero_lost"]})',
    )

    report = {
        'benchmark': 'kv_transport',
        'python': sys.version.split()[0],
        'platform': platform.platform(),
        'smoke': args.smoke,
        'pipelining': pipelining,
        'sharding': sharding,
        'chaos': chaos,
    }
    with open(args.out, 'w') as f:
        json.dump(report, f, indent=2)
    print(f'wrote {args.out}')
    if args.gate and not (pipelining['passes_3x'] and chaos['passes_zero_lost']):
        print(
            f'GATE FAILED: pipelining speedup {pipelining["speedup"]:.2f}x '
            f'(needs >= 3x), lost keys {chaos["lost_keys"]} (needs 0)',
        )
        return 1
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
