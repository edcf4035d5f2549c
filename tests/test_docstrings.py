"""Docstring coverage enforcement for the documented packages.

CI runs ruff's pydocstyle rules (D100–D104 plus public-method D102) over
the packages in ``DOCUMENTED_PACKAGES`` and the modules in
``DOCUMENTED_MODULES``; this test enforces the same
contract from the tier-1 suite so coverage cannot regress on machines
without ruff installed.  Every module, public class, and public function/method in
those packages must carry a docstring.
"""
from __future__ import annotations

import ast
import pathlib

import pytest

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / 'src' / 'repro'
#: Every library package except ``connectors``: its ~70 undocumented public
#: methods are almost all implementations of the ``Connector`` protocol,
#: which is documented once, on the protocol.
DOCUMENTED_PACKAGES = (
    'store', 'proxy', 'stream', 'cluster', 'dim', 'faults', 'analysis',
    'endpoint', 'kvserver', 'serialize', 'cache', 'workflow',
)
#: Single modules of ``connectors`` held to the same rule: the DIM
#: connectors' routing, striping and replication, which is the ``dim``
#: package's client side.
DOCUMENTED_MODULES = ('connectors/dim_base.py',)


def _documented_modules() -> list[pathlib.Path]:
    paths = [REPO_SRC / module for module in DOCUMENTED_MODULES]
    for package in DOCUMENTED_PACKAGES:
        paths.extend(sorted((REPO_SRC / package).rglob('*.py')))
    assert paths, 'documented packages not found (repo layout changed?)'
    return paths


def _missing_docstrings(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append(f'{path.name}: module docstring')

    def walk(node: ast.AST, parents: tuple[ast.AST, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            # Functions nested inside another function are implementation
            # detail (ruff's D rules skip them too).
            if any(
                isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef))
                for p in parents
            ):
                continue
            public = not child.name.startswith('_') and all(
                not p.name.startswith('_')
                for p in parents
                if isinstance(p, ast.ClassDef)
            )
            if public and ast.get_docstring(child) is None:
                missing.append(f'{path.name}:{child.lineno} {child.name}')
            walk(child, parents + (child,))

    walk(tree, ())
    return missing


@pytest.mark.parametrize(
    'path', _documented_modules(), ids=lambda p: str(p.relative_to(REPO_SRC)),
)
def test_public_api_is_documented(path: pathlib.Path) -> None:
    missing = _missing_docstrings(path)
    assert not missing, (
        'public symbols without docstrings (docs/API.md contract): '
        + ', '.join(missing)
    )


def test_top_level_exports_are_documented() -> None:
    """Every symbol re-exported from ``repro`` carries a docstring."""
    import repro

    undocumented = []
    for name in repro.__all__:
        if name.startswith('__'):
            continue
        obj = getattr(repro, name)
        if callable(obj) and not (obj.__doc__ or '').strip():
            undocumented.append(name)
    assert not undocumented, f'undocumented top-level exports: {undocumented}'
