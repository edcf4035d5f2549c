"""Compute endpoints of the federated FaaS substrate.

A compute endpoint executes tasks on a particular host of the simulated
testbed (e.g. a Theta compute node).  While a task runs, the simulation
context reports the endpoint's host as the current location, so any proxy the
task resolves is charged the correct wide-area cost; task functions that
declare a ``ctx`` keyword argument additionally receive a
:class:`~benchmarks.paper.faas.context.TaskContext` for virtual sleeps and
communication/compute overlap.
"""
from __future__ import annotations

import inspect
from typing import Any
from typing import Callable

from benchmarks.paper.faas.context import TaskContext
from benchmarks.paper.sim.clock import VirtualClock
from benchmarks.paper.sim.context import on_host
from benchmarks.paper.sim.network import Fabric

__all__ = ['ComputeEndpoint']


class ComputeEndpoint:
    """A named task-execution endpoint bound to a fabric host.

    Args:
        name: endpoint name clients submit to.
        host: fabric host the endpoint's workers run on.
        clock: the shared virtual clock.
        fabric: the simulated fabric (handed to task contexts).
        task_overhead_s: per-task scheduling/deserialization overhead at the
            endpoint (worker dispatch, result pickling, etc.).
    """

    def __init__(
        self,
        name: str,
        host: str,
        clock: VirtualClock,
        fabric: Fabric | None = None,
        *,
        task_overhead_s: float = 0.005,
    ) -> None:
        self.name = name
        self.host = host
        self.clock = clock
        self.fabric = fabric
        self.task_overhead_s = task_overhead_s
        self.tasks_executed = 0

    def __repr__(self) -> str:
        return f'ComputeEndpoint(name={self.name!r}, host={self.host!r})'

    def execute(self, func: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        """Run ``func`` on this endpoint, charging its overhead to the clock."""
        self.clock.advance(self.task_overhead_s)
        self.tasks_executed += 1
        with on_host(self.host):
            if _accepts_ctx(func):
                ctx = TaskContext(clock=self.clock, host=self.host, fabric=self.fabric)
                return func(*args, ctx=ctx, **kwargs)
            return func(*args, **kwargs)


def _accepts_ctx(func: Callable[..., Any]) -> bool:
    """Return whether ``func`` declares a ``ctx`` keyword parameter."""
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        return False
    if 'ctx' in signature.parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in signature.parameters.values()
    )
