"""Table 2: round-trip task times for the real-time defect analysis application.

A client (standing in for the microscopy facility) submits segmentation tasks
on ~1 MB micrographs to a Globus Compute endpoint whose tasks run on a Polaris
compute node.  Rows compare the Globus Compute baseline against FileStore and
EndpointStore with either only the inputs, or both inputs and outputs,
proxied.  Real images are generated and really segmented; communication time
is virtual seconds on the simulated fabric.
"""
from __future__ import annotations

import tempfile
from dataclasses import dataclass

from benchmarks.paper.apps.defect_analysis import defect_inference_task
from benchmarks.paper.apps.defect_analysis import generate_micrograph
from benchmarks.paper.faas import single_endpoint_executor
from benchmarks.paper.figures.reporting import ResultTable
from benchmarks.paper.figures.reporting import mean
from benchmarks.paper.figures.reporting import stdev
from benchmarks.paper.sim import VirtualClock
from benchmarks.paper.sim import paper_testbed
from benchmarks.paper.sim.context import on_host
from benchmarks.paper.sim.costed import CostedConnector
from benchmarks.paper.sim.costs import EndpointPeerCost
from benchmarks.paper.sim.costs import SharedFilesystemCost
from repro.store import Store

__all__ = ['run_table2']

POLARIS_COMPUTE = 'polaris-compute'


@dataclass(frozen=True)
class _Config:
    label: str
    store_kind: str | None    # None = Globus Compute baseline
    proxy_outputs: bool
    client_host: str


_CONFIGS = (
    _Config('Globus Compute baseline', None, False, 'theta-login'),
    _Config('FileStore (inputs)', 'file-store', False, 'theta-login'),
    _Config('FileStore (inputs/outputs)', 'file-store', True, 'theta-login'),
    _Config('EndpointStore (inputs)', 'endpoint-store', False, 'midway2-login'),
    _Config('EndpointStore (inputs/outputs)', 'endpoint-store', True, 'midway2-login'),
)


def _run_config(config: _Config, repeats: int, image_side: int, workdir: str) -> list[float]:
    fabric = paper_testbed()
    times: list[float] = []
    for repeat in range(repeats):
        clock = VirtualClock()
        executor = single_endpoint_executor(
            'defect-endpoint', POLARIS_COMPUTE, config.client_host, clock, fabric,
        )
        image = generate_micrograph(side=image_side, seed=repeat)

        store = None
        if config.store_kind is not None:
            if config.store_kind == 'file-store':
                store_dir = f'{workdir}/{config.label}-{repeat}'.replace(' ', '_')
                store_url = f'file://{store_dir}?cache_size=0'
                model = SharedFilesystemCost(fabric)
            else:
                store_url = 'local://?cache_size=0'
                model = EndpointPeerCost(fabric)
            store = Store.from_url(
                store_url,
                name=f'table2-{config.label}-{repeat}',
                wrap_connector=lambda inner: CostedConnector(inner, model, clock),
            )
        start = clock.now()
        try:
            with on_host(config.client_host):
                if store is None:
                    future = executor.submit(defect_inference_task, image)
                else:
                    proxy = store.proxy(image, cache_local=False)
                    if config.proxy_outputs:
                        future = executor.submit(
                            defect_inference_task, proxy, proxy_output_store=store.name,
                        )
                    else:
                        future = executor.submit(defect_inference_task, proxy)
                result = future.result()
                # The client always consumes the analysis summary; if the
                # result came back as a proxy it is resolved here.
                _ = result.n_defects if hasattr(result, 'n_defects') else result
            times.append(clock.now() - start)
        finally:
            if store is not None:
                store.close(clear=True)
    return times


def run_table2(*, repeats: int = 3, image_side: int = 512, workdir: str | None = None) -> ResultTable:
    """Reproduce Table 2: mean +/- std round-trip times and improvements."""
    table = ResultTable(
        title='Table 2: real-time defect analysis round-trip times',
        columns=['configuration', 'proxied', 'mean_ms', 'std_ms', 'improvement_pct'],
    )
    table.add_note('virtual milliseconds; improvements are relative to the Globus Compute baseline')
    with tempfile.TemporaryDirectory() as tmp:
        base = workdir or tmp
        baseline_times = _run_config(_CONFIGS[0], repeats, image_side, base)
        baseline_mean = mean(baseline_times)
        table.add_row(
            configuration=_CONFIGS[0].label, proxied='--',
            mean_ms=baseline_mean * 1000.0, std_ms=stdev(baseline_times) * 1000.0,
            improvement_pct=None,
        )
        for config in _CONFIGS[1:]:
            times = _run_config(config, repeats, image_side, base)
            improvement = (baseline_mean - mean(times)) / baseline_mean * 100.0
            table.add_row(
                configuration=config.label,
                proxied='Inputs/Outputs' if config.proxy_outputs else 'Inputs',
                mean_ms=mean(times) * 1000.0,
                std_ms=stdev(times) * 1000.0,
                improvement_pct=improvement,
            )
    return table
