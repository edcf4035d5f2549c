"""Fault tolerance and fault scheduling.

* :mod:`repro.faults.retry` — the *tolerance* half: a single, shared
  :class:`~repro.faults.retry.RetryPolicy` (jittered exponential backoff)
  used by the broker owner walk (``PartitionRouter.first_live``, which
  every routed publish, coordinator command, subscription and failover
  shares) and by the workflow engine's resubmission delays, so backoff
  behaviour is tuned in exactly one place.
* :mod:`repro.faults.plan` — the *fault* half: seeded, schedulable
  :class:`~repro.faults.plan.FaultPlan` scripts of process SIGKILLs that
  the chaos tests and the pipeline benchmark use to prove the tolerance
  half works against real process death.
"""
from repro.faults.plan import FaultAction
from repro.faults.plan import FaultPlan
from repro.faults.plan import FaultPlanRun
from repro.faults.retry import DEFAULT_RECONNECT_POLICY
from repro.faults.retry import RetryPolicy

__all__ = [
    'DEFAULT_RECONNECT_POLICY',
    'FaultAction',
    'FaultPlan',
    'FaultPlanRun',
    'RetryPolicy',
]
