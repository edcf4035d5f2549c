"""Shared configuration for the benchmark suite.

Each ``bench_fig*``/``bench_table*`` script regenerates one table or figure
of the paper by calling the corresponding ``benchmarks.paper.figures``
function under ``pytest-benchmark`` and then printing the resulting
rows/series (captured with ``-s`` or in the pytest summary output).  Set
``REPRO_BENCH_FULL=1`` to run the paper-scale parameter sweeps instead of the
quicker default ones.
"""
from __future__ import annotations

import os

import pytest

from repro.connectors.globus_service import reset_transfer_service
from repro.dim import reset_nodes
from repro.endpoint import reset_endpoint_registry
from repro.store import unregister_all


def full_sweeps() -> bool:
    """Whether to run the paper-scale parameter sweeps (slower)."""
    return os.environ.get('REPRO_BENCH_FULL', '0') not in ('0', '', 'false')


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Benchmarks share the process: keep registries isolated between them."""
    yield
    unregister_all()
    reset_nodes()
    reset_endpoint_registry()
    reset_transfer_service()


def print_table(table) -> None:
    """Print a harness result table below the benchmark output."""
    print()
    print(table)
