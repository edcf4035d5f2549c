"""``import repro`` is lazy: the tiers load on first use, not on import."""
from __future__ import annotations

import os
import subprocess
import sys

import repro

_SERVER_IMPORT = '''
import sys
import repro.kvserver
heavy = ('repro.cluster', 'repro.dim', 'repro.endpoint', 'repro.stream.groups',
         'repro.store', 'repro.connectors', 'repro.proxy')
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, loaded
import repro
assert repro.Store.__name__ == 'Store' and 'repro.store' in sys.modules
'''


def test_kvserver_process_does_not_load_the_client_tiers():
    """What a storage-server subprocess imports stays small."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, '-c', _SERVER_IMPORT],
        env={**os.environ, 'PYTHONPATH': src},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_every_export_resolves_and_is_listed():
    listed = dir(repro)
    for name in repro.__all__:
        assert getattr(repro, name) is not None
        assert name in listed
    from repro import Proxy, Store, store_from_url  # noqa: F401
    # Subpackages still resolve as attributes, as they did when the package
    # imported them eagerly.
    assert repro.store.get_store is repro.get_store
    assert not hasattr(repro, 'no_such_name')
