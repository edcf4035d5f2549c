"""PS-endpoints: peer-to-peer object transfer between two 'sites'.

Two endpoints register with a relay server; a proxy created at site A is
resolved at site B, which causes B's endpoint to ask the relay for an
introduction to A's endpoint, open a peer connection to it and pull the
object directly — the relay never carries the data.

Run with::

    python examples/endpoints_peer_to_peer.py
"""
from __future__ import annotations

import pickle

import numpy as np

from repro import store_from_url
from repro.connectors.endpoint import set_local_endpoint
from repro.endpoint import Endpoint
from repro.endpoint import RelayServer


def main() -> None:
    relay = RelayServer()
    site_a = Endpoint('site-a', relay)
    site_b = Endpoint('site-b', relay)
    site_a.start()
    site_b.start()
    print(f'relay assigned UUIDs: A={site_a.uuid[:8]}..., B={site_b.uuid[:8]}...')

    # Producer at site A: the participating endpoints are the URL netloc.
    set_local_endpoint(site_a.uuid)
    store = store_from_url(
        f'endpoint://{site_a.uuid},{site_b.uuid}/endpoint-example-store',
    )
    dataset = np.random.default_rng(0).normal(size=(256, 256))
    proxy = store.proxy(dataset, cache_local=False)
    wire = pickle.dumps(proxy)
    print(f'proxy of a {dataset.nbytes // 1024} KiB array pickles to {len(wire)} bytes')

    # Consumer at site B: resolving the proxy triggers the peer transfer.
    set_local_endpoint(site_b.uuid)
    received = pickle.loads(wire)
    print(f'resolved at site B: sum={float(received.sum()):.3f} '
          f'(matches producer: {np.allclose(received, dataset)})')

    connection = site_b.peer_connections()[site_a.uuid]
    print(f'peer connection: B -> A at {connection.host}:{connection.port} '
          f'after {relay.messages_forwarded} introduction(s)')
    print(f'relay carried only signaling traffic: {relay.bytes_forwarded} bytes total')

    set_local_endpoint(None)
    store.close()
    site_a.stop()
    site_b.stop()


if __name__ == '__main__':
    main()
