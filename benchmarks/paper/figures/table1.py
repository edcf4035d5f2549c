"""Table 1: summary of provided Connector implementations."""
from __future__ import annotations

from benchmarks.paper.figures.reporting import ResultTable
from repro.connectors import ALL_CONNECTOR_CLASSES

__all__ = ['run_table1']


def run_table1() -> ResultTable:
    """Regenerate the connector capability matrix (Table 1 of the paper)."""
    table = ResultTable(
        title='Table 1: Summary of provided Connector implementations',
        columns=['connector', 'storage', 'intra_site', 'inter_site', 'persistence'],
    )
    for cls in ALL_CONNECTOR_CLASSES:
        capabilities = cls.capabilities
        table.add_row(
            connector=cls.__name__,
            storage=capabilities.storage,
            intra_site='yes' if capabilities.intra_site else '',
            inter_site='yes' if capabilities.inter_site else '',
            persistence='yes' if capabilities.persistence else '',
        )
    table.add_note(
        'LocalConnector and MultiConnector are additions of this reproduction; '
        'the remaining rows correspond to Table 1 of the paper.',
    )
    table.add_note(
        'RedisConnector and the DIM family (Margo/UCX/ZMQ) share the '
        'concurrent SimKV transport: pipelined multiplexing clients, '
        'MSET/MGET/MDEL batch wire commands, and optional striping of '
        'large objects across nodes (peers/shard_threshold).',
    )
    return table
