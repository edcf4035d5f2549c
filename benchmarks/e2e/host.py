"""Host facts, CPU pinning, speed probes and /proc readers for the benchmark.

Nothing here imports ``repro``: these are the harness's own observations of
the machine, used to pin the run, to describe it in the result envelope and
to explain a disturbed run; no reading here ever discards or rescales a timing.
"""
from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

_CLK_TCK = os.sysconf('SC_CLK_TCK')
_MEMCPY_BYTES = 4 * 1024 * 1024
_MEMCPY_SRC = bytearray(_MEMCPY_BYTES)
_MEMCPY_DST = bytearray(_MEMCPY_BYTES)


def pin_to_one_cpu() -> dict:
    """Pin this process (and every child it spawns later) to one CPU.

    The highest CPU id of the current affinity mask is used.  Every timed
    loop is strict ping-pong between the driver and the server, so one CPU
    loses no parallelism and removes the largest noise source found while
    sizing: where the scheduler places the two processes.
    """
    before = sorted(os.sched_getaffinity(0))
    cpu = before[-1]
    pinned = True
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pinned = False
    return {
        'cpu': cpu,
        'pinned': pinned,
        'affinity_before': before,
        'driver_affinity': sorted(os.sched_getaffinity(0)),
    }


def probe_python_ms() -> float:
    """Wall milliseconds of a fixed pure-Python loop (host interpreter speed)."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return (time.perf_counter_ns() - start) / 1e6


def probe_memcpy_ms() -> float:
    """Wall milliseconds of sixteen 4 MiB buffer copies (host memcpy speed)."""
    start = time.perf_counter_ns()
    for _ in range(16):
        _MEMCPY_DST[:] = _MEMCPY_SRC
    return (time.perf_counter_ns() - start) / 1e6


def process_cpu_s(pid: int) -> float:
    """utime+stime of ``pid`` in seconds, from ``/proc/<pid>/stat``."""
    with open(f'/proc/{pid}/stat') as f:
        # The command name may contain spaces; fields resume after ')'.
        fields = f.read().rsplit(')', 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def process_status_mb(pid: int, field: str) -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` (e.g. ``VmHWM``) in MB."""
    with open(f'/proc/{pid}/status') as f:
        for line in f:
            if line.startswith(field + ':'):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def process_affinity(pid: int) -> list[int]:
    return sorted(os.sched_getaffinity(pid))


def driver_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_ticks(cpu: int) -> int:
    """Cumulative steal ticks of ``cpu`` from ``/proc/stat`` (0 if absent)."""
    with open('/proc/stat') as f:
        for line in f:
            parts = line.split()
            if parts[0] == f'cpu{cpu}' and len(parts) > 8:
                return int(parts[8])
    return 0


def git_sha(root: Path) -> str | None:
    """HEAD of ``root`` or ``None`` (the driver's checkout is not a repository)."""
    if not (root / '.git').exists():
        return None
    try:
        out = subprocess.run(
            ['git', 'rev-parse', 'HEAD'],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def describe(root: Path) -> dict:
    """Static facts about the interpreter and machine for the envelope."""
    return {
        'git_sha': git_sha(root),
        'python': sys.version.split()[0],
        'platform': platform.platform(),
        'nproc': os.cpu_count(),
        'loadavg': list(os.getloadavg()),
        'pythonhashseed': os.environ.get('PYTHONHASHSEED'),
    }
