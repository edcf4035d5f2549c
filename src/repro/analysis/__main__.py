"""Command-line entry point: ``python -m repro.analysis``.

Exit status: 0 when clean (or not ``--strict``), 1 when ``--strict``
and findings survived suppressions, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.core import all_checkers
from repro.analysis.core import run_analysis


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='python -m repro.analysis',
        description=(
            'Project-specific static analysis for the repro codebase '
            '(blocking event-loop calls, traceback-pinned buffers, '
            'lock-order cycles, silent excepts, metric-registry drift, '
            'unjoined daemon threads).'
        ),
    )
    parser.add_argument(
        'paths', nargs='*', type=Path,
        help='files or directories to analyze (default: <root>/src/repro)',
    )
    parser.add_argument(
        '--root', type=Path, default=None,
        help='repository root (default: auto-detected from this package)',
    )
    parser.add_argument(
        '--select', default=None, metavar='RULES',
        help='comma-separated rule ids to run (e.g. RP001,RP004)',
    )
    parser.add_argument(
        '--strict', action='store_true',
        help='exit 1 when any unsuppressed finding survives',
    )
    parser.add_argument(
        '--json', action='store_true', dest='as_json',
        help='emit a machine-readable JSON report instead of text',
    )
    parser.add_argument(
        '--list-rules', action='store_true',
        help='print the registered rule set and exit',
    )
    return parser


def _detect_root() -> Path:
    """The repository root: the ancestor holding ``src/repro``."""
    here = Path(__file__).resolve()
    for ancestor in here.parents:
        if (ancestor / 'src' / 'repro').is_dir():
            return ancestor
    return Path.cwd()


def main(argv: Sequence[str] | None = None) -> int:
    """Run the analyzer; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, cls in all_checkers().items():
            print(f'{rule}  {cls.name}: {cls.description}')
        return 0

    root = (args.root or _detect_root()).resolve()
    select = (
        [r.strip() for r in args.select.split(',') if r.strip()]
        if args.select else None
    )
    paths = args.paths or None

    try:
        report = run_analysis(root, paths, select=select)
    except (ValueError, SyntaxError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2

    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        counts = report.counts_by_rule()
        summary = ', '.join(f'{r}: {n}' for r, n in sorted(counts.items()))
        print(
            f'{len(report.findings)} finding(s) '
            f'({summary or "clean"}) — {report.files_checked} file(s), '
            f'{len(report.suppressed)} suppressed',
        )
    if args.strict and not report.clean:
        return 1
    return 0


if __name__ == '__main__':
    sys.exit(main())
