"""The ``serve.*`` metric schema (names and per-tenant helpers).

Counters obey two accounting invariants the tests enforce::

    serve.submitted == serve.admitted + serve.rejected + serve.shed
    serve.admitted  == serve.completed + serve.failed

Every request counter has a per-tenant mirror
``serve.tenant.<tenant>.<name>`` (the suffix after ``serve.``), so
multi-tenant dashboards read straight off :func:`repro.obs.summary`
with ``prefix="serve.tenant."``.
"""

from __future__ import annotations

from repro import obs

SUBMITTED = "serve.submitted"
ADMITTED = "serve.admitted"
REJECTED = "serve.rejected"
SHED = "serve.shed"
COMPLETED = "serve.completed"
FAILED = "serve.failed"
EXPIRED = "serve.expired"
RETRIES = "serve.retries"
DEGRADED = "serve.degraded"   # admissions below the exact tier
# Server-wide, no per-tenant mirror: admission's plan cache lookups.
PLAN_CACHE_HITS = "serve.plan_cache.hits"
PLAN_CACHE_MISSES = "serve.plan_cache.misses"

QUEUE_DEPTH = "serve.queue.depth"          # gauge
QUEUE_WAIT = "serve.queue.wait_seconds"    # histogram
SERVICE = "serve.service_seconds"          # histogram

_PREFIX = "serve."


def tenant_name(tenant: str, name: str) -> str:
    """Per-tenant mirror of a ``serve.*`` metric name."""
    return f"serve.tenant.{tenant}.{name[len(_PREFIX):]}"


def count(name: str, tenant: str = "", amount: int = 1) -> None:
    """Increment a serve counter and its per-tenant mirror."""
    obs.inc(name, amount)
    if tenant:
        obs.inc(tenant_name(tenant, name), amount)


def observe(name: str, tenant: str, value: float) -> None:
    """Record a histogram observation and its per-tenant mirror."""
    obs.observe(name, value)
    if tenant:
        obs.observe(tenant_name(tenant, name), value)
