"""Figure 9: endpoint-to-endpoint transfers versus Redis over an SSH tunnel.

Get and set request times between two PS-endpoints for three site pairs
(Theta-Theta, Midway2-Theta, Frontera-Theta), compared against a Redis server
hosted at the target site and reached through an SSH tunnel.  The real
endpoint/peering and SimKV code paths execute the requests; wide-area costs
are charged in virtual time using the fabric's links, with the PS-endpoint
data channel throttled to the fraction of WAN bandwidth the paper measured
for aiortc, and the PS-endpoint path paying its extra hop through the local
endpoint.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from benchmarks.paper.figures.reporting import ResultTable
from benchmarks.paper.sim import VirtualClock
from benchmarks.paper.sim import paper_testbed
from benchmarks.paper.sim import payload_of_size
from benchmarks.paper.sim.costs import EndpointPeerCost
from benchmarks.paper.sim.costs import SSHTunnelRedisCost
from repro.endpoint import Endpoint
from repro.endpoint import RelayServer
from repro.kvserver import KVClient
from repro.kvserver import KVServer

__all__ = ['SitePair', 'FIG9_SITE_PAIRS', 'run_figure9']


@dataclass(frozen=True)
class SitePair:
    """A (client site, target site) pair of Figure 9."""

    label: str
    client_host: str
    target_host: str


FIG9_SITE_PAIRS: tuple[SitePair, ...] = (
    SitePair('Theta -> Theta', 'theta-compute', 'theta-compute-2'),
    SitePair('Midway2 -> Theta', 'midway2-login', 'theta-compute'),
    SitePair('Frontera -> Theta', 'frontera-login', 'theta-compute'),
)

DEFAULT_SIZES = (1_000, 10_000, 100_000, 1_000_000, 10_000_000)


def run_figure9(
    *,
    site_pairs: Sequence[SitePair] = FIG9_SITE_PAIRS,
    payload_sizes: Sequence[int] = DEFAULT_SIZES,
    requests: int = 3,
) -> ResultTable:
    """Measure endpoint-peering and Redis+SSH request times for each site pair."""
    fabric = paper_testbed()
    table = ResultTable(
        title='Figure 9: PS-endpoint peering vs Redis over SSH',
        columns=['site_pair', 'system', 'operation', 'payload_bytes', 'avg_time_ms'],
    )
    table.add_note('virtual milliseconds; endpoint data channels are bandwidth-throttled like aiortc')
    relay = RelayServer()
    for pair in site_pairs:
        endpoint_cost = EndpointPeerCost(fabric)
        ssh_cost = SSHTunnelRedisCost(fabric, server_host=pair.target_host)
        # Real components: two endpoints peered through the relay, and a SimKV
        # server at the target site.  The SSH tunnel exists only in ssh_cost.
        with Endpoint(f'{pair.label}-local', relay) as local_ep, \
                Endpoint(f'{pair.label}-remote', relay) as remote_ep:
            kv_server = KVServer()
            kv_server.start()
            redis = KVClient(kv_server.host, kv_server.port)
            # Warm up the peer connection (and charge its one-time setup cost
            # outside the timed requests): the paper's endpoints keep their
            # peer connections open across the 1000 timed requests.
            remote_ep.set('warmup', b'x')
            local_ep.get('warmup', endpoint_id=remote_ep.uuid)
            endpoint_cost.get_cost(1, pair.target_host, pair.client_host)
            endpoint_cost.get_cost(1, pair.client_host, pair.target_host)
            try:
                for size in payload_sizes:
                    payload = payload_of_size(size)
                    for operation in ('get', 'set'):
                        # --- PS-endpoints --------------------------------- #
                        clock = VirtualClock()
                        for i in range(requests):
                            object_id = f'{operation}-{size}-{i}'
                            if operation == 'set':
                                # Client (at the client site) stores onto the
                                # remote endpoint: local endpoint forwards.
                                clock.advance(endpoint_cost.get_cost(
                                    size, pair.client_host, pair.target_host,
                                    first_fetch=(i == 0),
                                ))
                                local_ep.set(object_id, payload, endpoint_id=remote_ep.uuid)
                            else:
                                remote_ep.set(object_id, payload)
                                clock.advance(endpoint_cost.get_cost(
                                    size, pair.target_host, pair.client_host,
                                    first_fetch=(i == 0),
                                ))
                                local_ep.get(object_id, endpoint_id=remote_ep.uuid)
                        table.add_row(
                            site_pair=pair.label, system='ps-endpoints',
                            operation=operation, payload_bytes=size,
                            avg_time_ms=clock.now() / requests * 1000.0,
                        )
                        # --- Redis over SSH ------------------------------- #
                        clock = VirtualClock()
                        for i in range(requests):
                            object_id = f'ssh-{operation}-{size}-{i}'
                            if operation == 'set':
                                clock.advance(ssh_cost.put_cost(size, pair.client_host))
                                redis.set(object_id, payload)
                            else:
                                redis.set(object_id, payload)
                                clock.advance(ssh_cost.get_cost(
                                    size, pair.target_host, pair.client_host,
                                ))
                                redis.get(object_id)
                        table.add_row(
                            site_pair=pair.label, system='redis+ssh',
                            operation=operation, payload_bytes=size,
                            avg_time_ms=clock.now() / requests * 1000.0,
                        )
            finally:
                redis.close()
                kv_server.stop()
    return table
