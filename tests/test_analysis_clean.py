"""Tier-1 gate: the repository itself passes its own static analysis.

This is the enforcement end of ``repro.analysis``: every rule runs over
``src/repro`` exactly as ``python -m repro.analysis --strict`` does in
CI, and any non-suppressed finding fails the build.
"""
from __future__ import annotations

from pathlib import Path

from repro.analysis import all_checkers
from repro.analysis import run_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_default_rule_set_is_clean():
    report = run_analysis(REPO_ROOT)
    rendered = '\n'.join(f.render() for f in report.findings)
    assert report.clean, f'repro.analysis found new violations:\n{rendered}'
    assert report.files_checked > 70  # the walk really covered src/repro


def test_all_six_rules_are_registered_and_ran():
    report = run_analysis(REPO_ROOT)
    expected = ('RP001', 'RP002', 'RP003', 'RP004', 'RP005', 'RP006')
    assert tuple(all_checkers()) == expected
    assert report.rules_run == expected

