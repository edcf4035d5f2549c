"""What ``import repro`` loads, and what the library may import at all.

``import repro`` is lazy (the tiers load on first use, not on import), and
``src/repro`` is the store only: the paper-reproduction scaffolding lives in
``benchmarks/paper`` and the dependency runs one way.
"""
from __future__ import annotations

import ast
import importlib
import os
import pathlib
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


# --------------------------------------------------------------------------- #
# The library / paper-scaffolding boundary
# --------------------------------------------------------------------------- #
REPO = pathlib.Path(repro.__file__).resolve().parents[2]
FORMER_PACKAGES = ('harness', 'simulation', 'apps', 'faas', 'baselines', 'globus_sim')
#: The scaffolding's own tests, still under ``tests/`` (their move to
#: ``benchmarks/paper/tests`` is an open ROADMAP item); every other file there
#: tests the library and may not reach for ``benchmarks.paper``.
PAPER_TESTS = (
    ('harness',), ('simulation',), ('apps',), ('faas',), ('baselines',),
    ('test_integration.py',),
)


def _imported_modules(path: pathlib.Path, absolute_only: bool = False) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (absolute_only and node.level), f'{path}: relative import'
            if node.module and not node.level:
                names.add(node.module)
                names.update(f'{node.module}.{alias.name}' for alias in node.names)
    return names


def test_library_imports_nothing_from_the_paper_scaffolding():
    banned = ('benchmarks',) + tuple(f'repro.{name}' for name in FORMER_PACKAGES)
    offenders = [
        f'{path.relative_to(REPO)}: {name}'
        for path in sorted((REPO / 'src' / 'repro').rglob('*.py'))
        for name in sorted(_imported_modules(path))
        if name.startswith(banned)
    ]
    assert not offenders, offenders
    for name in FORMER_PACKAGES:
        assert not (REPO / 'src' / 'repro' / name).exists()


_WALK_LIBRARY = '''
import pkgutil
import sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.', onerror=None)]
assert len(names) > 60, names
failed = {}
for name in names:
    # Every module is the first thing a fresh interpreter imports: purge
    # what the previous one loaded, so no import order hides a cycle.
    for loaded in [m for m in sys.modules if m.partition('.')[0] == 'repro']:
        del sys.modules[loaded]
    try:
        __import__(name)
    except Exception as e:
        failed[name] = repr(e)
assert not failed, failed
print(len(names))
'''


def test_every_library_module_imports_with_only_src_on_the_path(tmp_path):
    """The library needs nothing from the repo root (``benchmarks/``), and
    no module needs another imported before it (no import cycles)."""
    result = subprocess.run(
        [sys.executable, '-c', _WALK_LIBRARY],
        env={**os.environ, 'PYTHONPATH': str(REPO / 'src')},
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_only_the_paper_tests_import_the_paper_scaffolding():
    offenders = [
        str(path.relative_to(REPO))
        for path in sorted((REPO / 'tests').rglob('*.py'))
        if path.relative_to(REPO / 'tests').parts[:1] not in PAPER_TESTS
        and any(name.startswith('benchmarks.paper') for name in _imported_modules(path))
    ]
    assert not offenders, offenders


def test_the_scaffolding_is_imported_under_one_name():
    """``benchmarks/`` is on ``sys.path`` while a ``bench_*`` script runs, so
    a relative or ``paper.``-rooted import would load a second copy of it."""
    importlib.import_module('benchmarks.paper.figures')  # never a vacuous check
    twice = [
        name for name in sys.modules if name == 'paper' or name.startswith('paper.')
    ]
    assert not twice, twice
    for path in sorted((REPO / 'benchmarks' / 'paper').rglob('*.py')):
        for name in _imported_modules(path, absolute_only=True):
            assert not name.startswith('paper'), f'{path}: {name}'


# --------------------------------------------------------------------------- #
# One client side of the KV wire
# --------------------------------------------------------------------------- #
def _calls(path: pathlib.Path) -> set[str]:
    """Dotted names of everything ``path`` calls (``socket.socket``, ``Foo``)."""
    return {
        ast.unparse(node.func)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    }


def test_one_module_opens_client_sockets_and_two_read_frames():
    """``kvserver/client.py`` owns every client socket, ``StreamDecoder`` is
    read by that client and by the server only, and nothing outside
    ``kvserver/`` makes a socket at all."""
    library = REPO / 'src' / 'repro'
    makers = {'socket.socket', 'socket.create_connection', 'socket.socketpair'}
    connects, decodes, sockets = set(), set(), set()
    for path in sorted(library.rglob('*.py')):
        calls, name = _calls(path), str(path.relative_to(library))
        if 'socket.create_connection' in calls:
            connects.add(name)
        if 'StreamDecoder' in calls:
            decodes.add(name)
        if calls & makers:
            sockets.add(name)
    assert connects == {'kvserver/client.py'}
    assert decodes == {'kvserver/client.py', 'kvserver/server.py'}
    assert sockets == {'kvserver/client.py', 'kvserver/server.py'}


def test_one_way_to_read_a_topic():
    """A topic is read by long-polling ``FETCH`` only: no server push, no
    client reader thread, and one cursor class (plus the failover wrapper
    around it) in ``repro.stream``."""
    library = REPO / 'src' / 'repro'
    assert 'threading.Thread' not in _calls(library / 'kvserver' / 'client.py')
    pushes = []
    for path in sorted(library.rglob('*.py')):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == 'EVENT_STATUS') or (
                isinstance(node, ast.Constant) and node.value == 'SUBSCRIBE'
            ):
                pushes.append(f'{path.relative_to(library)}:{node.lineno}')
    assert not pushes, pushes
    readers = sorted(
        f'{path.name}:{node.name}'
        for path in (library / 'stream').glob('*.py')
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == 'next_batch'
            for item in node.body
        )
    )
    assert readers == ['bus.py:Subscription', 'failover.py:FailoverSubscription']


# --------------------------------------------------------------------------- #
# One delivery core, one publish path
# --------------------------------------------------------------------------- #
def test_one_delivery_core_and_one_publish_path():
    """A plain stream is a one-claim group in ``repro.stream``: one function
    decodes events and one starts background resolution, no constructor
    dispatches through ``__new__``, and the producer has no unrouted path."""
    callers: dict[str, set[str]] = {'StreamEvent.decode': set(), 'resolve_async': set()}
    news, unrouted = [], []
    for path in sorted((REPO / 'src' / 'repro' / 'stream').glob('*.py')):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                news.extend(
                    f'{path.name}: {node.name}' for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == '__new__'
                )
            elif isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and ast.unparse(call.func) in callers:
                        callers[ast.unparse(call.func)].add(f'{path.name}:{node.name}')
            elif (
                isinstance(node, ast.Compare)
                and ast.unparse(node.left).endswith('_router')
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            ):
                unrouted.append(f'{path.name}:{node.lineno}')
    assert {name: len(found) for name, found in callers.items()} == {
        'StreamEvent.decode': 1, 'resolve_async': 1,
    }, callers
    assert not news, news
    assert not unrouted, unrouted
