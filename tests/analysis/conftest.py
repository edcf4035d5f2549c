"""Fixture-project helper shared by the analysis rule tests."""
from __future__ import annotations

import textwrap

import pytest

from repro.analysis import run_analysis


@pytest.fixture()
def analyze(tmp_path):
    """Build a throwaway project tree and run selected rules over it.

    Usage::

        report = analyze(
            {'src/repro/stream/x.py': '...'},
            select=['RP004'],
            docs='| `foo` | here | meaning |',
        )

    Files land under ``tmp_path`` with repo-like relative paths so
    path-scoped rules see the prefixes they expect; ``docs`` (when
    given) becomes the body of the ``docs/API.md`` metric table.
    """
    def _analyze(files, select, docs=None):
        for relpath, text in files.items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text))
        if docs is not None:
            docs_file = tmp_path / 'docs' / 'API.md'
            docs_file.parent.mkdir(parents=True, exist_ok=True)
            docs_file.write_text(
                '# API\n\n## Store metric names\n\n'
                '| Metric | Recorded by | Meaning |\n|---|---|---|\n'
                + textwrap.dedent(docs)
                + '\n\n## Versioning\n',
            )
        return run_analysis(tmp_path, select=select)

    return _analyze
