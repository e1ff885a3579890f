"""Resource governance and fault tolerance (``repro.runtime``).

Production EDA flows call SAT engines under strict effort envelopes:
an ATPG run gets seconds per fault, an LEC regression gets a global
wall-clock budget, and a portfolio race must survive workers that
crash or hang.  This package provides the runtime layer those flows
need:

* :mod:`repro.runtime.budget` -- the :class:`Budget` value object
  (deadline, counter caps, soft memory ceiling) and the amortised
  cooperative-checkpoint :class:`BudgetMeter` every engine consults;
* :mod:`repro.runtime.supervisor` -- the portfolio
  :class:`Supervisor`: heartbeat liveness, crash respawn with
  exponential backoff, hung-worker termination, payload auditing, and
  the per-worker :class:`PortfolioReport`;
* :mod:`repro.runtime.worker` -- the worker core the supervisor and
  the solve service share: one worker entry point, one payload audit,
  one worker handle and one idle list for reuse after clean results;
* :mod:`repro.runtime.faults` -- deterministic fault injection
  (:class:`FaultPlan`) so the recovery paths are testable in CI.
"""

from repro.runtime.budget import (
    Budget,
    BudgetMeter,
    DEFAULT_CHECK_INTERVAL,
    merge_legacy_caps,
    process_rss_mb,
)
from repro.runtime.faults import FaultPlan, ServiceFaultPlan
from repro.runtime.supervisor import (
    PortfolioReport,
    Supervisor,
    WorkerOutcome,
    WorkerReport,
)

__all__ = [
    "Budget",
    "BudgetMeter",
    "DEFAULT_CHECK_INTERVAL",
    "FaultPlan",
    "PortfolioReport",
    "ServiceFaultPlan",
    "Supervisor",
    "WorkerOutcome",
    "WorkerReport",
    "merge_legacy_caps",
    "process_rss_mb",
]
