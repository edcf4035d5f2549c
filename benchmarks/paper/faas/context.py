"""Execution context handed to task functions by a compute endpoint.

Task functions that declare a ``ctx`` keyword argument receive a
:class:`TaskContext` giving them access to the virtual clock (for virtual
sleeps and for overlapping communication with compute), the host they are
running on, and the fabric — without any of those objects having to be
serialized into the task payload.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from benchmarks.paper.sim.clock import VirtualClock
from benchmarks.paper.sim.costed import CostedConnector
from benchmarks.paper.sim.network import Fabric
from repro.proxy import Proxy
from repro.proxy import is_resolved
from repro.proxy import resolve
from repro.proxy.proxy import get_factory
from repro.store import get_store

__all__ = ['TaskContext', 'noop_task']


@dataclass
class TaskContext:
    """Everything a simulated task needs to interact with virtual time."""

    clock: VirtualClock
    host: str
    fabric: Fabric | None = None

    def sleep(self, seconds: float) -> None:
        """Advance virtual time by ``seconds`` (a compute phase of that length)."""
        self.clock.advance(seconds)

    # -- proxy-aware helpers -------------------------------------------------- #
    def _proxy_fetch_cost(self, proxy: Proxy) -> tuple[float, bool]:
        """Resolve ``proxy``; return its virtual fetch cost and whether it was
        already charged to the clock by the connector itself."""
        factory = get_factory(proxy)
        resolve(proxy)
        store_name = getattr(factory, 'store_name', None)
        if store_name is None:
            return 0.0, True
        store = get_store(store_name)
        if store is None or not isinstance(store.connector, CostedConnector):
            return 0.0, True
        connector = store.connector
        charged = connector.clock is self.clock
        return connector.ledger.last_get_cost, charged

    def resolve_proxy(self, proxy: Any) -> float:
        """Resolve a (possible) proxy input, charging its fetch cost to the clock.

        Returns the virtual fetch cost (0 for non-proxy inputs or proxies
        resolved earlier).
        """
        if not isinstance(proxy, Proxy) or is_resolved(proxy):
            return 0.0
        cost, already_charged = self._proxy_fetch_cost(proxy)
        if not already_charged:
            self.clock.advance(cost)
        return cost

    def compute_with_async_resolve(self, proxy: Any, compute_seconds: float) -> float:
        """Model overlapping proxy resolution with ``compute_seconds`` of compute.

        The paper's sleep tasks start an asynchronous resolve, perform their
        compute (sleep), and then wait on the resolve; the elapsed time is the
        maximum of the two rather than their sum.  Returns the virtual time
        charged on top of what the connector may already have charged.
        """
        if not isinstance(proxy, Proxy) or is_resolved(proxy):
            self.clock.advance(compute_seconds)
            return compute_seconds
        fetch_cost, already_charged = self._proxy_fetch_cost(proxy)
        elapsed = max(compute_seconds, fetch_cost)
        if already_charged:
            # The connector already advanced the clock by fetch_cost; add only
            # the part of the compute that was not hidden by the fetch.
            self.clock.advance(max(0.0, compute_seconds - fetch_cost))
        else:
            self.clock.advance(elapsed)
        return elapsed


def noop_task(data: Any, ctx: TaskContext | None = None) -> int:
    """No-op task: the input is resolved/used but no computation is performed."""
    if ctx is not None:
        ctx.resolve_proxy(data)
    return len(data)
