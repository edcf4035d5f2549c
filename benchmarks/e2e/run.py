"""Pass-by-proxy end-to-end benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload rt_small --seed 1 --seconds 26 --trace 0

One driver thread in this process talks over loopback TCP to one KVServer in
one spawned subprocess; both are pinned to the same single CPU.  A run is:
set-up -> timed blocks of a fixed item count -> one canonical instrumented
pass for the exact counts -> teardown checks.
The first line printed is the run's envelope (environment, per-block records,
both reductions of every timing); the last line is the result object.
"""
from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import host  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / 'src'

DEFAULT_SEED = 1
DEFAULT_SECONDS = 26
#: Timed blocks a run has at least, whatever ``--seconds`` says: the quartiles
#: need a few.  Blocks are sized so that twelve fill the default seconds; the
#: clock, not the count, ends a run, so a slow host cannot lengthen it.
MIN_BLOCKS = 4
#: A cycle that raises means the program is broken, not slow: stop early.
MAX_RAISED = 3
#: A run is marked disturbed (reported, never discarded or rescaled) when the
#: quartiles of the pure-Python probe lie further apart than this share of
#: its median, or the hypervisor stole more than this many ticks from our CPU.
DISTURBED_PROBE_SPREAD_PCT = 20.0
DISTURBED_STEAL_TICKS = 2


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4, method='inclusive')
    return (q1, q2, q3)


class Server:
    """The KVServer subprocess (inherits this process's one-CPU affinity)."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED='0')
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / 'server.py')],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line.strip():
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError('KVServer subprocess did not report a port')
        self.port = int(line)
        self.pid = self.proc.pid

    def stop(self) -> None:
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_block(wl, env, inputs: list, server_pid: int, first_cycle: int) -> dict:
    """Run ``inputs`` through ``wl.cycle`` in a closed loop; one record."""
    tracer = env.tracer
    cycle = wl.cycle
    times: list[int] = []
    failed = raised = 0
    error = None
    py_before, mem_before = host.probe_python_ms(), host.probe_memcpy_ms()
    client_cpu = time.process_time()
    server_cpu = host.process_cpu_s(server_pid)
    start = prev = time.perf_counter_ns()
    for n, inp in enumerate(inputs):
        tracer.start_cycle(first_cycle + n)
        try:
            ok = cycle(env, inp, tracer)
        except Exception as e:  # noqa: BLE001 - counted, reported, bounded
            ok = False
            raised += 1
            error = error or f'{type(e).__name__}: {e}'
        now = time.perf_counter_ns()
        times.append(now - prev)
        prev = now
        if not ok:
            failed += 1
            if raised >= MAX_RAISED:
                break
    wall_ns = prev - start
    client_cpu = time.process_time() - client_cpu
    server_cpu = host.process_cpu_s(server_pid) - server_cpu
    py_after, mem_after = host.probe_python_ms(), host.probe_memcpy_ms()
    if tracer.recording:
        tracer.fold()
    cycles = len(times)
    items = cycles * wl.items_per_cycle
    times.sort()
    return {
        'kind': 'traced' if tracer.recording else 'plain',
        'cycles': cycles,
        'items': items,
        'failed_items': failed * wl.items_per_cycle,
        'raised': raised,
        'error': error,
        'wall_s': wall_ns / 1e9,
        'items_per_s': items / (wall_ns / 1e9),
        'rt_ms_p50': times[cycles // 2] / 1e6,
        'client_cpu_us': client_cpu * 1e6 / items,
        'server_cpu_us': server_cpu * 1e6 / items,
        'py_probe_ms': [py_before, py_after],
        'memcpy_probe_ms': [mem_before, mem_after],
        'cycle_ns': times,
    }


def raw_rtt_us(client, payload: bytes, loops: int) -> float:
    """Median wall time of a bare KVClient set+get+delete of ``payload``."""
    samples = []
    for _ in range(loops):
        start = time.perf_counter_ns()
        client.set('e2e-raw', payload)
        got = client.get('e2e-raw')
        client.delete('e2e-raw')
        samples.append(time.perf_counter_ns() - start)
        if got is None or len(got) != len(payload):
            raise RuntimeError('raw KV round trip returned a wrong value')
    return statistics.median(samples) / 1e3


class Session:
    """One server, one bare client, one plain env: what set-up builds."""

    def __init__(self, wl) -> None:
        from repro.kvserver import KVClient
        from tracing import NullTracer

        self.wl = wl
        self.server = Server()
        self.client = KVClient('127.0.0.1', self.server.port)
        self.raw_rtt_us = raw_rtt_us(
            self.client, wl.sample_payload(), wl.raw_rtt_loops,
        )
        self.env = wl.open(self.server.port, 'p', NullTracer(), None)
        wl.preload(self.env)
        self.warmup = run_block(wl, self.env, wl.inputs(-2), self.server.pid, 0)
        gc.collect()
        gc.freeze()

    def close(self) -> int:
        """Tear everything down; returns keys left stranded on the server."""
        gc.unfreeze()
        self.wl.unload(self.env)
        self.wl.close(self.env)
        stranded = self.client.size()
        self.client.close()
        self.server.stop()
        return stranded


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, default=DEFAULT_SEED)
    parser.add_argument('--seconds', type=float, default=DEFAULT_SECONDS)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument(
        '--smoke', action='store_true',
        help='tiny blocks, two of them: for the schema/count test',
    )
    parser.add_argument(
        '--spans-out', type=Path, default=None,
        help='with --trace 1: write the raw spans as JSON to this file at exit',
    )
    return parser.parse_args(argv)


def measure(wl, session: Session, traced_env, seconds: float, min_blocks: int) -> list[dict]:
    """Timed blocks until ``seconds`` of measured time and ``min_blocks``.

    With a traced env, plain and traced blocks alternate, so both see the
    same stretch of host time and their rates can be compared.
    """
    blocks: list[dict] = []
    measured_s = 0.0
    next_cycle = wl.cycles
    block_s = session.warmup['wall_s']
    # A block is started only if most of it fits into ``seconds``.
    while measured_s + block_s / 2 < seconds or len(blocks) < min_blocks:
        index = len(blocks)
        env = traced_env if (traced_env is not None and index % 2) else session.env
        inputs = wl.inputs(index)
        gc.collect()
        block = run_block(wl, env, inputs, session.server.pid, next_cycle)
        next_cycle += len(inputs)
        blocks.append(block)
        block_s = block['wall_s']
        measured_s += block_s
        if block['raised'] >= MAX_RAISED:
            break
    return blocks


def canonical_pass(wl, session: Session) -> tuple[dict, dict, list[str]]:
    """The exact counts: a fixed access pattern through a fresh traced env.

    Returns the pass's block record, the counts, and any violated check.
    """
    from tracing import Counts
    from tracing import Tracer

    counts = Counts()
    env = wl.open(session.server.port, 'c', Tracer(), counts)
    inputs = wl.canonical_inputs()
    block = run_block(wl, env, inputs, session.server.pid, 0)
    problems = wl.invariants(env)
    expected = wl.expected_round_trips(inputs)
    if counts.round_trips != expected:
        problems.append(f'round trips {counts.round_trips} != expected {expected}')
    user_bytes = wl.user_bytes(len(inputs))
    exact = {
        'proxy_wire_bytes': wl.control_message_bytes(session.env, counts),
        'wire_bytes_per_user_byte': counts.wire_bytes / user_bytes,
        'round_trips_per_item': counts.round_trips / block['items'],
        'connector_calls': dict(counts.connector_calls),
        'publish_calls': counts.publish_calls,
        'wire_bytes': counts.wire_bytes,
        'user_bytes': user_bytes,
        'cache': env.store.cache_stats(),
    }
    if exact['proxy_wire_bytes'] <= 0:
        problems.append('control messages of one workload differ in size')
    wl.close(env)
    return block, exact, problems


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / 'repro').is_dir():
        print(f'benchmark needs the program under {SRC}', file=sys.stderr)
        return 2
    if os.environ.get('PYTHONHASHSEED') != '0':
        # Hash randomisation changes dict/set layouts run to run; it can only
        # be fixed before the interpreter starts, so start it again.
        os.environ['PYTHONHASHSEED'] = '0'
        os.execv(sys.executable, [sys.executable, *sys.argv])

    sys.path.insert(0, str(SRC))
    pinning = host.pin_to_one_cpu()
    from tracing import Counts
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f'unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}',
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    steal_before = host.steal_ticks(pinning['cpu'])

    session = Session(wl)
    # Process start to first timed block: imports, spawn, connect, the raw KV
    # loop, preload and one full warm-up block.
    setup_s = time.perf_counter() - _PROCESS_T0
    pinning['server_affinity'] = host.process_affinity(session.server.pid)

    tracer = Tracer(keep_raw=args.spans_out is not None)
    traced_counts = Counts()
    traced_env = None
    if args.trace:
        traced_env = wl.open(session.server.port, 't', tracer, traced_counts)
    blocks = measure(
        wl, session, traced_env,
        0.0 if args.smoke else args.seconds, 2 if args.smoke else MIN_BLOCKS,
    )
    aborted = blocks[-1]['raised'] >= MAX_RAISED
    server_rss_mb = host.process_status_mb(session.server.pid, 'VmHWM')
    peak_rss_mb = host.driver_peak_rss_mb() + server_rss_mb

    canon = {'items': 0, 'failed_items': 0}
    exact: dict = {}
    problems: list[str] = []
    if not aborted:
        canon, exact, problems = canonical_pass(wl, session)

    # Teardown and its checks.
    problems += wl.invariants(session.env)
    layer_env = session.env
    if traced_env is not None:
        problems += wl.invariants(traced_env)
        layer_env = traced_env
    cache_stats = layer_env.store.cache_stats()
    stream_stats = wl.stream_stats(layer_env)
    if traced_env is not None:
        wl.close(traced_env)
    stranded = session.close()
    if stranded:
        problems.append(f'{stranded} keys left on the server')
    steal = host.steal_ticks(pinning['cpu']) - steal_before

    # Reduce.  Host interference only ever adds time, so blocks are reduced
    # by the fast-side quartile (p75 of rates, p25 of times), unscaled; the
    # envelope keeps the median beside it.
    plain = [b for b in blocks if b['kind'] == 'plain']
    attempted = sum(b['items'] for b in blocks) + canon['items']
    failed = sum(b['failed_items'] for b in blocks) + canon['failed_items']
    if problems and not failed:
        failed = 1  # an invariant broke although every cycle verified
    pooled = sorted(t for b in plain for t in b['cycle_ns'])
    py_q = _quartiles([p for b in blocks for p in b['py_probe_ms']])
    mem_q = _quartiles([p for b in blocks for p in b['memcpy_probe_ms']])
    py_spread = 100.0 * (py_q[2] - py_q[0]) / py_q[1]
    rate_q = _quartiles([b['items_per_s'] for b in plain])
    rt_q = _quartiles([b['rt_ms_p50'] for b in plain])
    cpu_q = _quartiles([b['client_cpu_us'] + b['server_cpu_us'] for b in plain])
    rt_ms_p99 = pooled[len(pooled) * 99 // 100] / 1e6

    if args.trace:
        metrics = layer_metrics(wl, tracer, traced_counts, blocks, cache_stats, stream_stats)
        metrics.update({
            'kvserver.raw_rtt_us': (session.raw_rtt_us, 'us'),
            'kvserver.server_rss_mb': (server_rss_mb, 'MB'),
            'kvserver.stranded_keys': (stranded, 'count'),
            'harness.block_spread_pct': (100.0 * (rate_q[2] - rate_q[0]) / rate_q[1], '%'),
            'harness.speed_probe_ms': (py_q[1], 'ms'),
            'harness.speed_probe_spread_pct': (py_spread, '%'),
            'harness.memcpy_probe_ms': (mem_q[1], 'ms'),
            'harness.rt_ms_p99': (rt_ms_p99, 'ms'),
            'harness.rt_samples': (len(pooled), 'count'),
            'harness.steal_ticks': (steal, 'count'),
            'harness.failed_share': (failed / attempted, 'ratio'),
        })
    else:
        metrics = {
            'setup_s': (setup_s, 's'),
            'items_per_s': (rate_q[2], '1/s'),
            'rt_ms_p50': (rt_q[0], 'ms'),
            'cpu_us_per_item': (cpu_q[0], 'us'),
            'peak_rss_mb': (peak_rss_mb, 'MB'),
            'proxy_wire_bytes': (exact.get('proxy_wire_bytes', -1), 'B'),
            'wire_bytes_per_user_byte': (exact.get('wire_bytes_per_user_byte', -1), 'B/B'),
            'round_trips_per_item': (exact.get('round_trips_per_item', -1), 'count'),
        }

    envelope = {
        **host.describe(ROOT),
        **pinning,
        'workload': wl.name,
        'loop': 'closed, 1 client, loopback TCP',
        'seed': args.seed,
        'trace': args.trace,
        'smoke': args.smoke,
        'block_cycles': wl.cycles,
        'items_per_cycle': wl.items_per_cycle,
        'blocks': len(blocks),
        'measured_s': sum(b['wall_s'] for b in blocks),
        'setup_s': setup_s,
        'raw_rtt_us': session.raw_rtt_us,
        'warmup_items_per_s': session.warmup['items_per_s'],
        'steal_ticks': steal,
        'py_probe_ms': py_q,
        'py_probe_spread_pct': py_spread,
        'memcpy_probe_ms': mem_q,
        'disturbed': (
            py_spread > DISTURBED_PROBE_SPREAD_PCT or steal > DISTURBED_STEAL_TICKS
        ),
        'reductions': {
            'items_per_s': {'median': rate_q[1], 'fast_quartile': rate_q[2]},
            'rt_ms_p50': {'median': rt_q[1], 'fast_quartile': rt_q[0]},
            'cpu_us_per_item': {'median': cpu_q[1], 'fast_quartile': cpu_q[0]},
        },
        'rt_ms_p99': rt_ms_p99,
        'rt_samples': len(pooled),
        'exact': exact,
        'problems': problems,
        'block_records': [
            {k: v for k, v in b.items() if k != 'cycle_ns'} for b in blocks
        ],
    }
    print(json.dumps({'envelope': envelope}))
    if args.spans_out is not None:
        args.spans_out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans_out, 'w') as f:
            json.dump(
                {'fields': ['name', 'start_ns', 'end_ns', 'parent', 'cycle_id'],
                 'spans': tracer.kept}, f,
            )
    correct = failed == 0 and not problems and not aborted
    print(json.dumps({
        'correct': correct,
        'attempted': attempted,
        'failed': failed,
        'metrics': {
            name: {'value': value, 'unit': unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def layer_metrics(wl, tracer, counts, blocks, cache_stats, stream_stats) -> dict:
    """What the spans and counters of a traced run say about each layer."""
    plain = [b for b in blocks if b['kind'] == 'plain']
    traced = [b for b in blocks if b['kind'] == 'traced']
    items = sum(b['items'] for b in traced)
    cycle_ns = sum(sum(b['cycle_ns']) for b in traced)
    user_bytes = wl.user_bytes(sum(b['cycles'] for b in traced))

    def total_us(*names: str) -> float:
        return sum(tracer.total_ns[n] for n in names) / 1e3 / items

    def self_us(name: str) -> float:
        return tracer.self_ns[name] / 1e3 / items

    def connector_us(op: str) -> float:
        return total_us(f'connectors.{op}', f'connectors.{op}_batch')

    def rate(kind: list[dict]) -> float:
        return statistics.median(b['items_per_s'] for b in kind)

    accesses = cache_stats['hits'] + cache_stats['misses']
    events = counts.published_events
    return {
        'serialize.ser_us': (total_us('serialize.ser'), 'us'),
        'serialize.deser_us': (total_us('serialize.deser'), 'us'),
        'serialize.bytes_per_user_byte': (counts.serialized_bytes / user_bytes, 'B/B'),
        'store.proxy_self_us': (self_us('store.proxy'), 'us'),
        'store.resolve_self_us': (self_us('store.resolve'), 'us'),
        'cache.hit_ratio': (cache_stats['hits'] / accesses if accesses else 0.0, 'ratio'),
        'cache.evictions': (cache_stats['evictions'], 'count'),
        'proxy.pickle_us': (total_us('proxy.dumps', 'proxy.loads'), 'us'),
        'connectors.put_us': (connector_us('put'), 'us'),
        'connectors.get_us': (connector_us('get'), 'us'),
        'connectors.evict_us': (connector_us('evict'), 'us'),
        'connectors.calls_per_item': (sum(counts.connector_calls.values()) / items, 'count'),
        'connectors.bytes_out_per_item': (counts.bytes_out / items, 'B'),
        'connectors.bytes_in_per_item': (counts.bytes_in / items, 'B'),
        # CPU is read on the untraced blocks: recording spans costs the
        # driver CPU that the program does not spend.
        'kvserver.server_cpu_us_per_item': (
            statistics.median(b['server_cpu_us'] for b in plain), 'us'),
        'kvserver.client_cpu_us_per_item': (
            statistics.median(b['client_cpu_us'] for b in plain), 'us'),
        'stream.send_us_per_item': (total_us('stream.send'), 'us'),
        'stream.publish_us_per_item': (total_us('stream.publish'), 'us'),
        'stream.deliver_us_per_item': (self_us('stream.next'), 'us'),
        'stream.fetch_us_per_item': (total_us('stream.fetch'), 'us'),
        'stream.ack_us_per_item': (total_us('stream.ack'), 'us'),
        'stream.inline_share': (stream_stats['inline_share'], 'ratio'),
        'stream.event_bytes': (counts.published_bytes / events if events else 0.0, 'B'),
        'stream.lost': (stream_stats['lost'], 'count'),
        'stream.redelivered': (stream_stats['redelivered'], 'count'),
        'harness.trace_overhead_pct': (100.0 * (1.0 - rate(traced) / rate(plain)), '%'),
        'harness.residual_pct': (100.0 * (cycle_ns - tracer.top_level_ns) / cycle_ns, '%'),
    }


if __name__ == '__main__':
    sys.exit(main())
