"""Smoke test of the end-to-end benchmark: schema, checks, exact counts.

Each workload is run with ``--smoke`` block sizes on two seeds, untraced and
traced: the exact counts must agree bit-for-bit across the two seeds and
between a plain and a traced run.  Nothing here asserts a timing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text())
EXACT = ('proxy_wire_bytes', 'wire_bytes_per_user_byte', 'round_trips_per_item')


def run(workload: str, seed: int, trace: int, *extra: str) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable, str(HERE / 'run.py'), '--smoke',
            '--workload', workload, '--seed', str(seed), '--trace', str(trace),
            *extra,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[0])['envelope'], json.loads(lines[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'] is True
    assert result['attempted'] >= 1 and result['failed'] == 0
    assert set(result['metrics']) == {m['name'] for m in declared}
    for metric in declared:
        got = result['metrics'][metric['name']]
        assert set(got) == {'value', 'unit'}
        assert got['unit'] == metric['unit']
        assert isinstance(got['value'], (int, float))


@pytest.mark.parametrize('workload', [w['name'] for w in SPEC['workloads']])
def test_workload_schema_checks_and_exact_counts(workload, tmp_path):
    spans = tmp_path / 'spans.json'
    runs = {
        (seed, trace): run(
            workload, seed, trace, *(('--spans-out', str(spans)) if trace else ()),
        )
        for seed in (1, 2) for trace in (0, 1)
    }
    for (seed, trace), (envelope, result) in runs.items():
        check_result(result, SPEC['per_layer'] if trace else SPEC['end_to_end'])
        assert envelope['problems'] == []
        assert envelope['workload'] == workload
        assert envelope['seed'] == seed
        assert envelope['loop'] == 'closed, 1 client, loopback TCP'
        if envelope['pinned']:
            # Driver and server share exactly one CPU.
            assert envelope['driver_affinity'] == [envelope['cpu']]
            assert envelope['server_affinity'] == [envelope['cpu']]

    # Exact counts: identical across two seeds (plain and traced apart) and
    # between a plain and a traced run of one seed.
    exact = {key: envelope['exact'] for key, (envelope, _) in runs.items()}
    for name in EXACT:
        for trace in (0, 1):
            assert exact[1, trace][name] == exact[2, trace][name], (name, trace)
        for seed in (1, 2):
            assert exact[seed, 0][name] == exact[seed, 1][name], (name, seed)
            assert runs[seed, 0][1]['metrics'][name]['value'] == exact[seed, 0][name]

    for seed in (1, 2):
        for metric in SPEC['end_to_end']:
            assert runs[seed, 0][1]['metrics'][metric['name']]['value'] > 0
        layers = runs[seed, 1][1]['metrics']
        assert layers['kvserver.stranded_keys']['value'] == 0
        assert layers['stream.lost']['value'] == 0
        assert layers['stream.redelivered']['value'] == 0
        assert layers['harness.failed_share']['value'] == 0
        if workload.startswith('rt_'):
            assert layers['cache.hit_ratio']['value'] == 0
            assert layers['connectors.calls_per_item']['value'] == 3
    dumped = json.loads(spans.read_text())
    assert dumped['fields'] == ['name', 'start_ns', 'end_ns', 'parent', 'cycle_id']
    assert dumped['spans'] and all(len(span) == 5 for span in dumped['spans'])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, no result may be printed."""
    shutil.copy(ROOT / 'BENCHMARK.json', tmp_path / 'BENCHMARK.json')
    shutil.copytree(
        HERE, tmp_path / 'benchmarks' / 'e2e',
        ignore=shutil.ignore_patterns('__pycache__'),
    )
    done = subprocess.run(
        [sys.executable, 'benchmarks/e2e/run.py', '--workload', 'rt_small',
         '--seed', '1', '--seconds', '1', '--trace', '0'],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ''
