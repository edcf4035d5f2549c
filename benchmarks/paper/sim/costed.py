"""Connector wrapper that charges virtual time for real connector traffic.

``CostedConnector`` delegates every operation to a real connector (so objects
really are stored and fetched through the library's code paths) and, for each
operation, computes the virtual cost the operation would have had on the
simulated testbed — based on the payload size, where the object was produced,
and where the current code pretends to run (:mod:`benchmarks.paper.sim.context`).
Costs are charged to a shared :class:`~benchmarks.paper.sim.clock.VirtualClock`
and recorded in a ledger the benchmark harness reads.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any
from typing import Sequence

from benchmarks.paper.sim.clock import VirtualClock
from benchmarks.paper.sim.context import current_host
from benchmarks.paper.sim.costs import TransferCostModel
from repro.connectors.protocol import Connector
from repro.serialize.buffers import payload_nbytes

__all__ = ['CostLedger', 'CostedConnector']


@dataclass
class CostLedger:
    """Accumulated virtual costs charged by a CostedConnector."""

    put_cost: float = 0.0
    get_cost: float = 0.0
    put_count: int = 0
    get_count: int = 0
    last_get_cost: float = 0.0

    @property
    def total_cost(self) -> float:
        return self.put_cost + self.get_cost

    def record_put(self, cost: float) -> None:
        self.put_cost += cost
        self.put_count += 1

    def record_get(self, cost: float) -> None:
        self.get_cost += cost
        self.get_count += 1
        self.last_get_cost = cost


class CostedConnector(Connector):
    """Wrap ``inner`` with virtual-time accounting under ``model``.

    Args:
        inner: the real connector doing the work.
        model: cost model describing this communication method.
        clock: virtual clock charged for every operation (optional: when
            omitted only the ledger is updated).
    """

    connector_name = 'costed'

    def __init__(
        self,
        inner: Connector,
        model: TransferCostModel,
        clock: VirtualClock | None = None,
    ) -> None:
        self.inner = inner
        self.model = model
        self.clock = clock
        self.ledger = CostLedger()
        self.capabilities = inner.capabilities
        # A costed wrapper's config() describes the *inner* connector, so a
        # scheme-carrying StoreConfig must name the inner connector's scheme
        # for proxies to be resolvable in other processes.
        self.scheme = getattr(inner, 'scheme', None)
        #: Per stored key: the host that wrote it and the hosts that have
        #: fetched it since.  A write or an evict starts the key over.
        self._origins: dict[Any, str] = {}
        self._fetched_at: dict[Any, set[str]] = {}
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f'CostedConnector({self.inner!r}, model={self.model.name!r})'

    # -- cost helpers ------------------------------------------------------- #
    def _charge(self, cost: float) -> None:
        if self.clock is not None:
            self.clock.advance(cost)

    def _charge_put(self, key: Any, nbytes: int) -> None:
        host = current_host()
        cost = self.model.put_cost(nbytes, host)
        with self._lock:
            self._origins[key] = host
            self._fetched_at.pop(key, None)
        self.ledger.record_put(cost)
        self._charge(cost)

    def _charge_get(self, key: Any, nbytes: int) -> None:
        consumer = current_host()
        with self._lock:
            origin = self._origins.get(key, consumer)
            fetched_at = self._fetched_at.setdefault(key, set())
            first = consumer not in fetched_at
            fetched_at.add(consumer)
        cost = self.model.get_cost(nbytes, origin, consumer, first_fetch=first)
        self.ledger.record_get(cost)
        self._charge(cost)

    # -- connector protocol --------------------------------------------------- #
    def put(self, data: Any, **kwargs: Any) -> Any:
        nbytes = payload_nbytes(data)
        key = self.inner.put(data, **kwargs) if kwargs else self.inner.put(data)
        self._charge_put(key, nbytes)
        return key

    def put_batch(self, datas: Sequence[Any], **kwargs: Any) -> list[Any]:
        nbytes = [payload_nbytes(data) for data in datas]
        keys = (
            self.inner.put_batch(datas, **kwargs)
            if kwargs
            else self.inner.put_batch(datas)
        )
        for key, n in zip(keys, nbytes):
            self._charge_put(key, n)
        return keys

    def get(self, key: Any) -> Any | None:
        data = self.inner.get(key)
        if data is not None:
            self._charge_get(key, payload_nbytes(data))
        return data

    def get_batch(self, keys: Sequence[Any]) -> list[Any]:
        datas = self.inner.get_batch(keys)
        for key, data in zip(keys, datas):
            if data is not None:
                self._charge_get(key, payload_nbytes(data))
        return datas

    def new_key(self, **kwargs: Any) -> Any:
        return self.inner.new_key(**kwargs) if kwargs else self.inner.new_key()

    def set(self, key: Any, data: Any) -> None:
        self.inner.set(key, data)
        self._charge_put(key, payload_nbytes(data))

    def exists(self, key: Any) -> bool:
        return self.inner.exists(key)

    def _forget(self, keys: Sequence[Any]) -> None:
        with self._lock:
            for key in keys:
                self._origins.pop(key, None)
                self._fetched_at.pop(key, None)

    def evict(self, key: Any) -> None:
        self.inner.evict(key)
        self._forget([key])

    def evict_batch(self, keys: Sequence[Any]) -> None:
        """Evict several keys with one inner batch eviction.

        Without this override the base-class fallback called
        :meth:`evict` once per key — the lifetime-close and
        ``Store.close(clear=True)`` teardown paths through a costed
        (harness-wrapped) store degraded a single batched round trip into
        per-key round trips on the real connector.
        """
        keys = list(keys)
        self.inner.evict_batch(keys)
        self._forget(keys)

    def config(self) -> dict[str, Any]:
        # Costed wrappers are a benchmarking construct: their configs refer to
        # the inner connector so proxies resolve through the real channel.
        return self.inner.config()

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> Connector:  # pragma: no cover
        raise NotImplementedError(
            'CostedConnector cannot be reconstructed from a config; '
            'rebuild it around the inner connector instead',
        )

    def close(self, clear: bool = False) -> None:
        self.inner.close(clear=clear)
