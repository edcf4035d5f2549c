"""A/A check: do two interleaved sets of runs of the *same* checkout agree?

    python3 benchmarks/e2e/aa.py --runs 5 --out benchmarks/e2e/AA_BASELINE.json

Per workload the runs alternate A B B A A B B A ... (each with its own seed),
so slow drift of the host lands on both sets.  For every workload x end-to-end
metric it prints both set medians, how much worse B is than A (and A than B),
each set's quartile spread and that of all runs together (``spread *``, the
one that is judged), the bound from ``BENCHMARK.json`` and pass/fail.  Beside
them stands what the runs themselves say the bound should be (``derived``):
the larger of 5 % and twice the largest deviation of any run from the median
of all runs, and never under three times ``spread *``; 0 for a count that
repeated exactly.  A metric's shipped bound is the largest ``derived`` over
the workloads, capped at the contract's 0.25.  Any failed cycle, and any
exact count that differs between two runs, fails the check.
A failing A/A means the benchmark, not the program, moved: widen nothing,
measure more.  Its committed output is how the shipped bounds were derived.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FIRST_SEED = 101


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One benchmark invocation; returns (envelope, result)."""
    command = [
        *spec['command'], '--workload', workload, '--seed', str(seed),
        '--seconds', str(seconds), '--trace', '0',
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:  # a run that failed a check still prints its result
        raise RuntimeError(
            f'{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}',
        )
    return json.loads(lines[0])['envelope'], json.loads(lines[-1])


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (the driver's measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(metric: dict, a: list[float], b: list[float]) -> dict:
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric['better'] == 'lower' else -1.0
    b_worse = sign * (med_b - med_a) / med_a
    a_worse = sign * (med_a - med_b) / med_b
    spreads = (spread(a), spread(b))
    both = spread(a + b)
    spread_checked = metric['name'] != 'setup_s'
    med_all = statistics.median(a + b)
    deviation = max(abs(v - med_all) for v in a + b) / med_all
    exact = metric['bound'] == 0
    return {
        'metric': metric['name'],
        'unit': metric['unit'],
        'median_a': med_a,
        'median_b': med_b,
        'b_worse_by': b_worse,
        'a_worse_by': a_worse,
        'spread_a': spreads[0],
        'spread_b': spreads[1],
        'spread_all': both,
        'max_deviation': deviation,
        'derived_bound': 0.0 if exact and deviation == 0 else max(
            0.05, 2 * deviation, 3 * both if spread_checked else 0.0,
        ),
        'bound': metric['bound'],
        # The driver's two rules: neither set's median worse than the other's
        # by more than the bound, and (except for setup_s) the quartile
        # spread of ten runs within the bound.  The per-set spreads are shown
        # but not judged: the quartiles of five values are nearly their
        # extremes.
        'pass': max(b_worse, a_worse) <= metric['bound']
        and (not spread_checked or both <= metric['bound'])
        and (not exact or deviation == 0),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--runs', type=int, default=5, help='runs per set (>= 5)')
    parser.add_argument('--out', type=Path, default=None, help='write the report as JSON')
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error('--runs must be at least 5')
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    names = [w['name'] for w in spec['workloads']]

    started = time.time()
    rows = []
    runs = []
    disturbed = failed = attempted = 0
    host = None
    for workload in names:
        sets: dict[str, list[dict]] = {'A': [], 'B': []}
        for i in range(2 * args.runs):
            which = 'A' if i % 4 in (0, 3) else 'B'
            envelope, result = run_once(
                spec, workload, FIRST_SEED + i, spec['run_seconds'],
            )
            failed += result['failed']
            attempted += result['attempted']
            disturbed += bool(envelope['disturbed'])
            host = host or {
                k: envelope[k] for k in ('git_sha', 'python', 'platform', 'nproc', 'cpu')
            }
            sets[which].append(result['metrics'])
            # What the host was doing, to explain a run that stands apart.
            runs.append({
                'workload': workload, 'set': which, 'seed': FIRST_SEED + i,
                **{k: envelope[k] for k in (
                    'blocks', 'disturbed', 'steal_ticks', 'py_probe_ms',
                    'memcpy_probe_ms', 'loadavg',
                )},
                **{name: m['value'] for name, m in result['metrics'].items()},
            })
            print(f'{workload} {which} seed={FIRST_SEED + i} done', file=sys.stderr)
        for metric in spec['end_to_end']:
            row = compare(
                metric,
                [m[metric['name']]['value'] for m in sets['A']],
                [m[metric['name']]['value'] for m in sets['B']],
            )
            rows.append({'workload': workload, **row})

    header = (
        f'{"workload":13s} {"metric":25s} {"median A":>12s} {"median B":>12s} '
        f'{"B worse":>8s} {"spread A":>8s} {"spread B":>8s} {"spread *":>8s} '
        f'{"derived":>8s} {"bound":>6s}  ok'
    )
    print(header)
    for row in rows:
        print(
            f'{row["workload"]:13s} {row["metric"]:25s} {row["median_a"]:12.4f} '
            f'{row["median_b"]:12.4f} {100 * row["b_worse_by"]:7.2f}% '
            f'{100 * row["spread_a"]:7.2f}% {100 * row["spread_b"]:7.2f}% '
            f'{100 * row["spread_all"]:7.2f}% {100 * row["derived_bound"]:7.2f}% '
            f'{100 * row["bound"]:5.1f}%  {"pass" if row["pass"] else "FAIL"}',
        )
    report = {
        'host': host,
        'runs_per_set': args.runs,
        'run_seconds': spec['run_seconds'],
        'order': 'ABBA',
        'first_seed': FIRST_SEED,
        'disturbed_runs': disturbed,
        'wall_s': time.time() - started,
        'attempted': attempted,
        'failed_share': failed / attempted,
        'pass': failed == 0 and all(row['pass'] for row in rows),
        'rows': rows,
        'runs': runs,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + '\n')
    return 0 if report['pass'] else 1


if __name__ == '__main__':
    sys.exit(main())
