"""Seeded, schedulable fault plans.

A :class:`FaultPlan` is a script of timed process SIGKILLs
(:class:`FaultAction` entries) executed by a background thread relative
to :meth:`FaultPlan.start`.  Action times can carry seeded jitter so chaos
runs are *randomised but reproducible*: the same seed always produces
the same schedule.

Process kills resolve their target through a ``pids`` mapping supplied
at start time (values may be ints or zero-argument callables, so a plan
can be built before its victims are spawned).  Network faults (resets,
latency, truncation) are not scheduled in-process: they belong to a
seeded transport simulator, not to hooks on the request path.

Used by the chaos tests and by ``benchmarks/bench_pipeline.py`` to kill
a broker and a consumer mid-run under a recorded, reproducible schedule.
"""
from __future__ import annotations

import os
import random
import signal
import threading
import time
from collections.abc import Callable
from collections.abc import Mapping
from dataclasses import dataclass

__all__ = ['FaultAction', 'FaultPlan', 'FaultPlanRun']


@dataclass(frozen=True)
class FaultAction:
    """One scheduled SIGKILL.

    ``at`` is seconds from plan start.  ``target`` names a process,
    resolved via the ``pids`` mapping when the action fires.
    """

    at: float
    target: str

    def __post_init__(self) -> None:
        """Validate the schedule time."""
        if self.at < 0:
            raise ValueError('action time must be >= 0')


class FaultPlan:
    """An ordered, optionally seed-jittered schedule of process kills."""

    def __init__(self, *, seed: int | None = None) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.actions: list[FaultAction] = []

    def _jittered(self, at: float, jitter: float) -> float:
        if jitter <= 0.0:
            return at
        return max(0.0, at + self._rng.uniform(-jitter, jitter))

    def kill(self, target: str, at: float, *, jitter: float = 0.0) -> 'FaultPlan':
        """Schedule a SIGKILL of process ``target`` at ``at`` (± ``jitter``) s."""
        self.actions.append(FaultAction(self._jittered(at, jitter), target))
        return self

    def start(
        self,
        *,
        pids: Mapping[str, 'int | Callable[[], int | None]'] | None = None,
    ) -> 'FaultPlanRun':
        """Begin executing the plan on a background thread.

        ``pids`` resolves each action's target to a process id.
        """
        return FaultPlanRun(self.actions, pids=pids or {})


@dataclass
class _Fired:
    """Record of one executed (or failed) action."""

    elapsed: float
    action: FaultAction
    error: str | None = None


class FaultPlanRun:
    """A running fault plan: a daemon thread firing actions on schedule."""

    def __init__(
        self,
        actions: list[FaultAction],
        *,
        pids: Mapping[str, 'int | Callable[[], int | None]'],
    ) -> None:
        self._actions = sorted(actions, key=lambda a: a.at)
        self._pids = pids
        self._stop = threading.Event()
        self._started = time.monotonic()
        #: Execution log: one :class:`_Fired` per action that came due.
        self.executed: list[_Fired] = []
        self._thread = threading.Thread(
            target=self._run, name='fault-plan', daemon=True,
        )
        self._thread.start()

    # -- lifecycle ---------------------------------------------------------- #
    def stop(self) -> None:
        """Cancel any not-yet-fired actions and stop the thread."""
        self._stop.set()
        self._thread.join(timeout=5.0)

    def join(self, timeout: float | None = None) -> None:
        """Wait until every scheduled action has fired (or ``stop`` is called)."""
        self._thread.join(timeout=timeout)

    @property
    def done(self) -> bool:
        """Whether the schedule has finished executing."""
        return not self._thread.is_alive()

    def report(self) -> list[dict]:
        """JSON-friendly execution log (for benchmark reports)."""
        return [
            {
                'elapsed_s': round(f.elapsed, 3),
                'kind': 'kill',
                'target': f.action.target,
                'at_s': round(f.action.at, 3),
                'error': f.error,
            }
            for f in self.executed
        ]

    # -- execution ---------------------------------------------------------- #
    def _resolve_pid(self, target: str) -> int | None:
        entry = self._pids.get(target)
        if callable(entry):
            entry = entry()
        return int(entry) if entry is not None else None

    def _fire(self, action: FaultAction) -> str | None:
        pid = self._resolve_pid(action.target)
        if pid is None:
            return f'no pid known for target {action.target!r}'
        try:
            os.kill(pid, getattr(signal, 'SIGKILL', signal.SIGTERM))
        except ProcessLookupError:
            return 'process already gone'
        return None

    def _run(self) -> None:
        for action in self._actions:
            while True:
                remaining = action.at - (time.monotonic() - self._started)
                if remaining <= 0:
                    break
                if self._stop.wait(min(remaining, 0.25)):
                    return
            if self._stop.is_set():
                return
            error: str | None
            try:
                error = self._fire(action)
            except Exception as e:  # noqa: BLE001 - never kill the plan thread
                error = repr(e)
            self.executed.append(
                _Fired(time.monotonic() - self._started, action, error),
            )
