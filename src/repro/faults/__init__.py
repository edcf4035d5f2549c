"""Fault tolerance and fault injection toolkit.

This package has two halves that mirror each other:

* :mod:`repro.faults.retry` — the *tolerance* half: a single, shared
  :class:`~repro.faults.retry.RetryPolicy` (jittered exponential backoff)
  used by every reconnect/retry path in the code base — the SimKV client,
  streaming subscriptions, broker failover, and the workflow engine — so
  backoff behaviour is tuned in exactly one place.
* :mod:`repro.faults.injection` / :mod:`repro.faults.plan` — the
  *injection* half: process-global fault hooks at the transport seams
  (connect/send) plus seeded, schedulable :class:`~repro.faults.plan.FaultPlan`
  scripts (SIGKILL, connection reset, added latency, payload truncation)
  that tests and benchmarks use to prove the tolerance half works.
"""
from repro.faults.injection import FaultInjector
from repro.faults.injection import current_injector
from repro.faults.injection import install_injector
from repro.faults.injection import uninstall_injector
from repro.faults.plan import FaultAction
from repro.faults.plan import FaultPlan
from repro.faults.plan import FaultPlanRun
from repro.faults.retry import DEFAULT_RECONNECT_POLICY
from repro.faults.retry import RetryPolicy

__all__ = [
    'DEFAULT_RECONNECT_POLICY',
    'FaultAction',
    'FaultInjector',
    'FaultPlan',
    'FaultPlanRun',
    'RetryPolicy',
    'current_injector',
    'install_injector',
    'uninstall_injector',
]
