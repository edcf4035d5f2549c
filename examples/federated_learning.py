"""Federated learning over edge endpoints (Section 5.5 of the paper).

An aggregator shares a model with four edge devices by proxy: each device's
endpoint pulls the model directly from the aggregator's endpoint (peer to
peer through the relay), trains on its private data, and the aggregator
averages the returned models.  Only models ever cross the network.

The aggregation step is *pipelined* with ``ProxyFuture``: the aggregator
allocates one future per device up front and immediately wires the averaging
step to the futures' proxies; each device writes its trained model into its
future whenever it finishes, and the averaging resolves the proxies as it
touches them — no barrier collecting a list of results first.

Object lifetimes are store-managed rather than leaked: the global model each
round is an ``OwnedProxy`` whose key is evicted when its ``with`` block ends,
and every device-result future is bound to a run-scoped ``ContextLifetime``
that batch-evicts all trained-model keys once the run finishes.

The model and training code is the paper's application
(``benchmarks/paper/apps``), not part of ``repro``, so run from the
repository root with it on the path::

    PYTHONPATH=src:. python examples/federated_learning.py
"""
from __future__ import annotations

import numpy as np

from benchmarks.paper.apps.federated_learning import create_model
from benchmarks.paper.apps.federated_learning import federated_average
from benchmarks.paper.apps.federated_learning import generate_client_data
from benchmarks.paper.apps.federated_learning import model_nbytes
from benchmarks.paper.apps.federated_learning import train_local
from repro import ContextLifetime
from repro import store_from_url
from repro.connectors.endpoint import set_local_endpoint
from repro.endpoint import Endpoint
from repro.endpoint import RelayServer
from repro.proxy import borrow
from repro.proxy import extract

N_DEVICES = 4
ROUNDS = 3


def main() -> None:
    relay = RelayServer()
    aggregator_ep = Endpoint('aggregator', relay)
    aggregator_ep.start()
    device_eps = [Endpoint(f'edge-device-{i}', relay) for i in range(N_DEVICES)]
    for ep in device_eps:
        ep.start()

    all_uuids = [aggregator_ep.uuid] + [ep.uuid for ep in device_eps]
    set_local_endpoint(aggregator_ep.uuid)
    store = store_from_url(f'endpoint://{",".join(all_uuids)}/fl-model-store')

    global_model = create_model(hidden_blocks=2)
    print(f'initial model: {global_model.num_parameters()} parameters, '
          f'{model_nbytes(global_model)} bytes serialized')

    test_images, test_labels = generate_client_data(512, seed=999)
    # Every trained-model key produced during the run is bound to one
    # run-scoped lifetime; closing it below batch-evicts them all, so the
    # aggregator's endpoint storage does not grow round over round.
    run_lifetime = ContextLifetime(store=store)
    for round_index in range(ROUNDS):
        # The aggregator owns the round's global model: the key is evicted
        # automatically when the owner's `with` block ends, instead of
        # leaking one model copy per round.
        set_local_endpoint(aggregator_ep.uuid)
        with store.owned_proxy(global_model, cache_local=False) as model_proxy:
            # Pipelined aggregation: allocate one future per device and wire
            # the averaging input to the proxies before any device trained.
            result_futures = [
                store.future(timeout=30.0, lifetime=run_lifetime)
                for _ in device_eps
            ]
            local_model_proxies = [future.proxy() for future in result_futures]

            for device_index, device_ep in enumerate(device_eps):
                set_local_endpoint(device_ep.uuid)    # "run" on the device
                # Devices read the owner's model through shared borrows.
                model = (
                    extract(borrow(model_proxy))
                    if device_index == 0
                    else global_model
                )
                images, labels = generate_client_data(seed=round_index * 100 + device_index)
                trained = train_local(model, images, labels, epochs=2)
                # The device streams its result into the pre-allocated
                # future; the write lands on the aggregator's endpoint
                # peer-to-peer.
                result_futures[device_index].set_result(trained)

            set_local_endpoint(aggregator_ep.uuid)
            # federated_average touches each proxy, resolving it on demand.
            global_model = federated_average(local_model_proxies)
        accuracy = float(np.mean(global_model.predict(test_images) == test_labels))
        print(f'round {round_index + 1}: aggregated {len(local_model_proxies)} device models, '
              f'held-out accuracy {accuracy:.3f}')

    set_local_endpoint(None)
    run_lifetime.close()
    store.close()
    for ep in device_eps:
        ep.stop()
    aggregator_ep.stop()
    print('done: only models crossed the (simulated) network; raw data never left the devices')


if __name__ == '__main__':
    main()
