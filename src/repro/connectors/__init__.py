"""Connector implementations (mediated communication channels).

Summary (mirrors Table 1 of the paper):

==============  =========  ==========  ==========  ===========
Connector       Storage    Intra-site  Inter-site  Persistence
==============  =========  ==========  ==========  ===========
LocalConnector  memory     --          --          --
FileConnector   disk       yes         --          yes
RedisConnector  hybrid     yes         --          yes
MargoConnector  memory     yes         --          --
UCXConnector    memory     yes         --          --
ZMQConnector    memory     yes         --          --
GlobusConnector disk       yes         yes         yes
EndpointConn.   hybrid     yes         yes         yes
MultiConnector  (varies)   (varies)    (varies)    (varies)
==============  =========  ==========  ==========  ===========

The rows are the paper's Table 1 for the systems being modelled.  Here
``RedisConnector`` and ``EndpointConnector`` both sit on the in-memory
SimKV server (a PS-endpoint is a ``KVServer`` with a UUID), so "hybrid"
and "persistence" describe Redis and the production endpoint, not these
stand-ins.  ``GlobusConnector`` submits its transfers to
:mod:`repro.connectors.globus_service`, an in-process stand-in for the
Globus Transfer cloud service.
"""
from repro.connectors.protocol import Connector
from repro.connectors.protocol import ConnectorCapabilities
from repro.connectors.protocol import ConnectorKey
from repro.connectors.protocol import connector_from_path
from repro.connectors.protocol import connector_path
from repro.connectors.registry import StoreURL
from repro.connectors.registry import get_connector_class
from repro.connectors.registry import list_connectors
from repro.connectors.registry import register_connector
from repro.connectors.registry import unregister_connector
from repro.connectors.local import LocalConnector
from repro.connectors.file import FileConnector
from repro.connectors.redis import RedisConnector
from repro.connectors.margo import MargoConnector
from repro.connectors.ucx import UCXConnector
from repro.connectors.zmq import ZMQConnector
from repro.connectors.globus import GlobusConnector
from repro.connectors.endpoint import EndpointConnector
from repro.connectors.multi import MultiConnector
from repro.connectors.policy import Policy

__all__ = [
    'Connector',
    'ConnectorCapabilities',
    'ConnectorKey',
    'EndpointConnector',
    'FileConnector',
    'GlobusConnector',
    'LocalConnector',
    'MargoConnector',
    'MultiConnector',
    'Policy',
    'RedisConnector',
    'StoreURL',
    'UCXConnector',
    'ZMQConnector',
    'connector_from_path',
    'connector_path',
    'get_connector_class',
    'list_connectors',
    'register_connector',
    'unregister_connector',
]

#: Capability matrix used to regenerate Table 1 of the paper.
ALL_CONNECTOR_CLASSES = (
    LocalConnector,
    FileConnector,
    RedisConnector,
    MargoConnector,
    UCXConnector,
    ZMQConnector,
    GlobusConnector,
    EndpointConnector,
    MultiConnector,
)
