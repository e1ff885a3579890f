"""Fault-tolerant SAT-as-a-service layer (``repro.service``).

Production EDA flows do not call a solver function; they call a
*service* that must stay predictable when a worker segfaults, a
tenant floods the queue, or a job is simply too hard for its
deadline.  This package provides that layer on the machinery the
runtime already has (budgets, supervision, fault injection, proofs):

* :mod:`repro.service.protocol` -- the NDJSON wire contract;
* :mod:`repro.service.admission` -- bounded per-tenant queues,
  weighted deficit round-robin dispatch, hardness shedding;
* :mod:`repro.service.cache` -- LRU of terminal result bodies keyed
  by the canonical formula hash;
* :mod:`repro.service.server` -- the asyncio :class:`SolveServer`:
  retry with inherited budgets, graceful degradation, drain-based
  shutdown, STATUS introspection;
* :mod:`repro.service.client` -- the blocking TCP client and the
  in-process test client;
* :mod:`repro.service.metrics` -- per-tenant service metrics
  (queue-wait/solve-latency histograms, WDRR deficits, admission and
  retry counters, cache hit rate) rendered by the ``metrics``
  protocol op as Prometheus text;
* :mod:`repro.service.top` -- the ``repro top`` terminal dashboard
  polling STATUS + metrics;
* :mod:`repro.service.journal` -- the durable append-only job journal
  behind ``repro serve --journal`` (write-ahead submissions and
  terminal results, crash-safe replay on restart).
"""

from repro.service.admission import (
    ServiceConfig,
    TenantQueues,
    estimate_hardness,
)
from repro.service.cache import ResultCache
from repro.service.client import InProcessClient, ServiceClient
from repro.service.journal import JobJournal, replay_journal
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    BAD_REQUEST,
    NOT_FOUND,
    REJECTED_OVERLOAD,
    SHUTTING_DOWN,
    ProtocolError,
    SubmitRequest,
    decode_message,
    encode_message,
    parse_submit,
    validate_progress_frame,
)
from repro.service.server import SolveServer, run_server

__all__ = [
    "BAD_REQUEST",
    "InProcessClient",
    "JobJournal",
    "NOT_FOUND",
    "ProtocolError",
    "REJECTED_OVERLOAD",
    "ResultCache",
    "SHUTTING_DOWN",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "SolveServer",
    "SubmitRequest",
    "TenantQueues",
    "decode_message",
    "encode_message",
    "estimate_hardness",
    "parse_submit",
    "replay_journal",
    "run_server",
    "validate_progress_frame",
]
