"""repro.serve — reliability as a service: the multi-query scheduler.

Everything below :mod:`repro.runtime` assumes one query owns the
process; this package is the layer that stops assuming.  A
:class:`Server` accepts many concurrent queries, each with its own
:class:`~repro.runtime.budget.Budget`/deadline, and schedules them over
one shared worker pool with:

* **admission control** by forecasting the plan the executor would run
  (:func:`repro.runtime.costmodel.plan_chain`, the same forecast
  ``repro analyze`` prints) — hopeless or deadline-unmeetable work is
  refused with a structured response before it queues
  (:mod:`repro.serve.admission`);
* a **load-shedding guarantee ladder** that degrades admission tiers
  (exact → relative → additive, the paper's Corollary 5.5 axis) as the
  backlog grows and restores them as it drains;
* **fair-share arbitration between queries** (per-tenant in-flight and
  service-time accounting), not just between engines of one chain;
* **retry with exponential backoff + deterministic jitter** for
  transient engine faults (:mod:`repro.serve.retry`);
* **per-engine circuit breakers** that trip on repeated failures and
  heal on probes (:mod:`repro.serve.breaker`);
* **clean drain/shutdown** — in-flight and queued work flushes, new
  work is answered ``shutdown``.

The whole server runs under the deterministic fault-injection harness:
constructed over a :class:`~repro.runtime.faults.VirtualScheduler`, a
scripted fault schedule plus per-request seeds replays admission
decisions, retries, breaker transitions, and per-query answers
bit-for-bit.  Telemetry is the ``serve.*`` schema of
:mod:`repro.serve.metrics`, aggregated globally and per tenant.

See docs/ROBUSTNESS.md ("Serving and overload") for the full story,
and ``repro serve`` / ``repro submit`` for the CLI surface.
"""

from repro.serve.admission import AdmissionDecision, DegradationLadder, tier_filter
from repro.serve.breaker import CircuitBreaker
from repro.serve.queue import Backlog
from repro.serve.request import (
    FAILED_CODES,
    REJECTED_CODES,
    RESPONSE_CODES,
    SHED_CODES,
    ServeRequest,
    ServeResponse,
)
from repro.serve.retry import RetryPolicy
from repro.serve.scheduler import Server

__all__ = [
    "Server",
    "ServeRequest",
    "ServeResponse",
    "RESPONSE_CODES",
    "REJECTED_CODES",
    "SHED_CODES",
    "FAILED_CODES",
    "DegradationLadder",
    "AdmissionDecision",
    "tier_filter",
    "CircuitBreaker",
    "RetryPolicy",
    "Backlog",
]
