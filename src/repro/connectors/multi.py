"""MultiConnector: policy-based routing over several connectors (Section 4.3).

Applications with multiple communication patterns register several connectors
each with a :class:`~repro.connectors.policy.Policy`; every ``put`` is routed
to the highest-priority connector whose policy matches the object's size and
the operation's tag constraints.  Keys remember which connector stored the
object so ``get``/``exists``/``evict`` route straight back to it, and the
whole construction is expressible as a plain config dict so proxies created
through a MultiConnector-backed store remain self-contained.
"""
from __future__ import annotations

from typing import Any
from typing import Iterable
from typing import NamedTuple
from typing import Sequence

from repro.connectors.policy import Policy
from repro.connectors.protocol import Connector
from repro.connectors.protocol import ConnectorCapabilities
from repro.connectors.protocol import PutData
from repro.connectors.protocol import connector_from_path
from repro.connectors.protocol import connector_path
from repro.connectors.registry import StoreURL
from repro.connectors.registry import get_connector_class
from repro.exceptions import NoPolicyMatchError
from repro.serialize.buffers import payload_nbytes

__all__ = ['MultiConnector', 'MultiKey']


class MultiKey(NamedTuple):
    """Key of an object stored through a MultiConnector."""

    connector_label: str
    inner_key: Any


class MultiConnector(Connector):
    """Connector routing operations across several managed connectors.

    Args:
        connectors: mapping of label to ``(connector, policy)`` pairs.  Labels
            are embedded in keys, so they must be stable across processes.
    """

    connector_name = 'multi'
    scheme = 'multi'
    capabilities = ConnectorCapabilities(
        storage='hybrid',
        intra_site=True,
        inter_site=True,
        persistence=False,
        tags=('multi', 'policy-routing'),
    )

    def __init__(self, connectors: dict[str, tuple[Connector, Policy]]) -> None:
        if not connectors:
            raise ValueError('MultiConnector requires at least one managed connector')
        self.connectors = dict(connectors)

    def __repr__(self) -> str:
        return f'MultiConnector(labels={sorted(self.connectors)!r})'

    # -- routing ------------------------------------------------------------ #
    def _select(
        self,
        size_bytes: int | None,
        subset_tags: Iterable[str],
        superset_tags: Iterable[str],
    ) -> tuple[str, Connector]:
        matches: list[tuple[int, str, Connector]] = []
        for label, (connector, policy) in self.connectors.items():
            if policy.is_valid(
                size_bytes=size_bytes,
                subset_tags=subset_tags,
                superset_tags=superset_tags,
            ):
                matches.append((policy.priority, label, connector))
        if not matches:
            size_desc = (
                f'object of {size_bytes} bytes'
                if size_bytes is not None
                else 'object of unknown size (deferred write)'
            )
            raise NoPolicyMatchError(
                f'no connector policy matches {size_desc} with '
                f'subset_tags={sorted(subset_tags)!r}, '
                f'superset_tags={sorted(superset_tags)!r}',
            )
        matches.sort(key=lambda item: item[0], reverse=True)
        _, label, connector = matches[0]
        return label, connector

    def connector_for(self, label: str) -> Connector:
        """Return the managed connector registered under ``label``."""
        return self.connectors[label][0]

    def policy_for(self, label: str) -> Policy:
        """Return the policy registered under ``label``."""
        return self.connectors[label][1]

    # -- primary operations --------------------------------------------- #
    def put(
        self,
        data: PutData,
        *,
        subset_tags: Iterable[str] = (),
        superset_tags: Iterable[str] = (),
    ) -> MultiKey:
        label, connector = self._select(
            payload_nbytes(data), subset_tags, superset_tags,
        )
        inner_key = connector.put(data)
        return MultiKey(connector_label=label, inner_key=inner_key)

    def put_batch(
        self,
        datas: Sequence[PutData],
        *,
        subset_tags: Iterable[str] = (),
        superset_tags: Iterable[str] = (),
    ) -> list[MultiKey]:
        return [
            self.put(data, subset_tags=subset_tags, superset_tags=superset_tags)
            for data in datas
        ]

    # -- deferred writes -------------------------------------------------- #
    def new_key(
        self,
        *,
        subset_tags: Iterable[str] = (),
        superset_tags: Iterable[str] = (),
    ) -> MultiKey:
        """Pre-allocate a key for a deferred write (``Store.future``).

        The object's size is unknown at allocation time, so routing only
        considers tag constraints and priority (``Policy.is_valid`` skips
        size bounds when no size is given).
        """
        label, connector = self._select(None, subset_tags, superset_tags)
        return MultiKey(connector_label=label, inner_key=connector.new_key())

    def set(self, key: MultiKey, data: PutData) -> None:
        connector = self.connector_for(key.connector_label)
        connector.set(key.inner_key, data)

    def get(self, key: MultiKey) -> Any | None:
        connector = self.connector_for(key.connector_label)
        return connector.get(key.inner_key)

    def exists(self, key: MultiKey) -> bool:
        connector = self.connector_for(key.connector_label)
        return connector.exists(key.inner_key)

    def evict(self, key: MultiKey) -> None:
        connector = self.connector_for(key.connector_label)
        connector.evict(key.inner_key)

    def get_batch(self, keys: Iterable[MultiKey]) -> list[Any]:
        """Fetch several keys, batching per managed connector.

        Keys are grouped by the connector that stored them, fetched with
        one ``get_batch`` per inner connector, and returned in input order.
        """
        keys = list(keys)
        by_label: dict[str, list[tuple[int, Any]]] = {}
        for index, key in enumerate(keys):
            by_label.setdefault(key.connector_label, []).append(
                (index, key.inner_key),
            )
        results: list[Any] = [None] * len(keys)
        for label, entries in by_label.items():
            datas = self.connector_for(label).get_batch(
                [inner for _, inner in entries],
            )
            for (index, _), data in zip(entries, datas):
                results[index] = data
        return results

    def evict_batch(self, keys: Iterable[MultiKey]) -> None:
        """Evict several keys with one batched eviction per managed connector.

        Without this override the base-class fallback issued one
        ``evict`` round trip per key — the lifetime-close and
        ``Store.close(clear=True)`` teardown paths through a multi store
        paid per-key latency on connectors that batch natively.
        """
        by_label: dict[str, list[Any]] = {}
        for key in keys:
            by_label.setdefault(key.connector_label, []).append(key.inner_key)
        for label, inner_keys in by_label.items():
            self.connector_for(label).evict_batch(inner_keys)

    # -- configuration / lifecycle --------------------------------------- #
    def config(self) -> dict[str, Any]:
        return {
            'connectors': {
                label: {
                    'connector': connector_path(connector),
                    'connector_config': connector.config(),
                    'policy': policy.as_dict(),
                }
                for label, (connector, policy) in self.connectors.items()
            },
        }

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> 'MultiConnector':
        connectors: dict[str, tuple[Connector, Policy]] = {}
        for label, entry in config['connectors'].items():
            connector = connector_from_path(entry['connector'], entry['connector_config'])
            policy = Policy.from_dict(entry['policy'])
            connectors[label] = (connector, policy)
        return cls(connectors)

    @classmethod
    def from_url(cls, url: StoreURL | str) -> 'MultiConnector':
        """Build from ``multi://?<label>=<percent-encoded inner URL>&...``.

        Each query parameter names one managed connector; its value is a
        full store URL for that connector (resolved recursively through the
        scheme registry) whose own query string carries the
        :class:`~repro.connectors.policy.Policy` fields::

            multi://?fast=redis%3A%2F%2F%3Flaunch%3D1%26priority%3D2
                    &bulk=file%3A%2F%2F%2Ftmp%2Fbulk%3Fmin_size_bytes%3D100001

        Recognized policy parameters on the inner URLs: ``priority``,
        ``min_size_bytes``, ``max_size_bytes``, ``subset_tags``,
        ``superset_tags`` (comma-separated tag lists).
        """
        url = StoreURL.parse(url)
        connectors: dict[str, tuple[Connector, Policy]] = {}
        for label in url.remaining_keys():
            inner_raw = url.pop(label)
            assert inner_raw is not None
            inner = StoreURL.parse(inner_raw)
            policy = Policy(
                min_size_bytes=inner.pop_int('min_size_bytes', 0) or 0,
                max_size_bytes=inner.pop_int('max_size_bytes', None),
                subset_tags=inner.pop_tags('subset_tags'),
                superset_tags=inner.pop_tags('superset_tags'),
                priority=inner.pop_int('priority', 0) or 0,
            )
            inner_cls = get_connector_class(inner.scheme)
            connector = inner_cls.from_url(inner)
            inner.ensure_consumed()
            connectors[label] = (connector, policy)
        return cls(connectors)

    def close(self, clear: bool = False) -> None:
        for connector, _policy in self.connectors.values():
            connector.close(clear=clear)
