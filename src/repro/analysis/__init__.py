"""Project-specific static analysis and runtime concurrency witnesses.

The codebase carries the full concurrency surface of the paper's
production system — an event-loop broker, pipelined leader/follower clients,
background rebalancers and heartbeats, and zero-copy pickle-5 buffer
exports.  The invariants that keep that surface correct (no blocking
calls on the event loop, no stored tracebacks pinning buffer exports, a
consistent lock order, no silently swallowed transport errors) have each
been paid for in segfaults or review rounds; this package encodes them
machine-checkably.

Two halves:

* **Static lint** (``python -m repro.analysis``): an AST-based checker
  framework with a pluggable rule registry (``RP001``–``RP006``) and
  per-line ``# repro: ignore[RULE] - reason`` suppressions.  See
  :mod:`repro.analysis.core` and the rule modules under
  :mod:`repro.analysis.checkers`.
* **Runtime witness** (:mod:`repro.analysis.witness`): an opt-in
  ``threading`` lock wrapper that records per-thread lock-acquisition
  order and raises on observed order inversions — a lightweight
  lock-order race detector covering what the AST cannot see.  The test
  suite installs it when ``REPRO_WITNESS=1``.

``docs/ANALYSIS.md`` describes each rule, its rationale, and the
suppression policy.
"""
from __future__ import annotations

from repro.analysis.core import AnalysisReport
from repro.analysis.core import Checker
from repro.analysis.core import Finding
from repro.analysis.core import all_checkers
from repro.analysis.core import register_checker
from repro.analysis.core import run_analysis

__all__ = [
    'AnalysisReport',
    'Checker',
    'Finding',
    'all_checkers',
    'register_checker',
    'run_analysis',
]
