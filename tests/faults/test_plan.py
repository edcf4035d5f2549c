"""Fault-plan tests: seeded schedules and process kills."""
from __future__ import annotations

import subprocess
import sys
import time

import pytest

from repro.faults import FaultPlan
from repro.faults.plan import FaultAction


def test_action_validation():
    with pytest.raises(ValueError):
        FaultAction(-1.0, 't')


def test_seeded_jitter_is_reproducible():
    def build(seed):
        plan = FaultPlan(seed=seed)
        plan.kill('a', 1.0, jitter=0.5).kill('b', 2.0, jitter=0.5)
        return [action.at for action in plan.actions]

    assert build(42) == build(42)
    assert build(42) != build(43)  # different seed, different schedule
    for at in build(42):
        assert at >= 0.0


def test_kill_action_sigkills_subprocess():
    victim = subprocess.Popen(
        [sys.executable, '-c', 'import time; time.sleep(60)'],
    )
    try:
        plan = FaultPlan().kill('victim', 0.1)
        run = plan.start(pids={'victim': victim.pid})
        run.join(timeout=5.0)
        assert victim.wait(timeout=5.0) == -9  # SIGKILL
        report = run.report()
        assert report[0]['kind'] == 'kill'
        assert report[0]['error'] is None
    finally:
        if victim.poll() is None:
            victim.kill()


def test_kill_resolves_callable_pid_late():
    # The plan is built before the victim exists: the pid resolves at
    # fire time through the callable.
    box = {}
    victim = subprocess.Popen(
        [sys.executable, '-c', 'import time; time.sleep(60)'],
    )
    try:
        plan = FaultPlan().kill('late', 0.1)
        run = plan.start(pids={'late': lambda: box.get('pid')})
        box['pid'] = victim.pid
        run.join(timeout=5.0)
        assert victim.wait(timeout=5.0) == -9
    finally:
        if victim.poll() is None:
            victim.kill()


def test_unknown_kill_target_is_recorded_not_raised():
    plan = FaultPlan().kill('ghost', 0.0)
    run = plan.start(pids={})
    run.join(timeout=5.0)
    assert run.done
    assert 'no pid known' in run.report()[0]['error']


def test_stop_cancels_pending_actions():
    plan = FaultPlan().kill('victim', 30.0)  # far in the future
    run = plan.start(pids={})
    time.sleep(0.05)
    run.stop()
    assert run.done
    assert run.report() == []
