"""Request and response types for the :mod:`repro.serve` scheduler.

A :class:`ServeRequest` is one query submitted to the server: the query
itself plus the per-query resource contract (``deadline`` and
``max_cost`` become a :class:`~repro.runtime.budget.Budget`), the
sampling parameters, a ``tenant`` for fair-share arbitration and
telemetry, a ``seed`` for deterministic replay, and an optional
``arrival`` offset for scripted workloads.

A :class:`ServeResponse` is the structured answer every request is
guaranteed to receive, whatever happens to it — admission rejection,
load shedding, retries, breaker trips, or a clean answer.  ``code``
is one of :data:`RESPONSE_CODES`; the accounting invariant (see
docs/ROBUSTNESS.md, "Serving and overload") is::

    submitted == admitted + rejected + shed
    admitted  == completed + failed
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.logic.evaluator import FOQuery
from repro.runtime.budget import Budget
from repro.util.errors import QueryError

#: Terminal outcome of a request.  ``ok`` is the only success; the
#: rest split into *rejections* (refused at admission), *sheds*
#: (dropped for load), and *failures* (admitted but not answered).
OK = "ok"
OVERLOADED = "overloaded"                  # shed: backlog full
COST_REFUSED = "cost_refused"              # rejected: no engine can run it
DEADLINE_UNMEETABLE = "deadline_unmeetable"  # rejected: forecast > deadline
INVALID = "invalid"                        # rejected: malformed request
SHUTDOWN = "shutdown"                      # rejected: server draining
DEADLINE_EXPIRED = "deadline_expired"      # failed: expired in queue/flight
EXHAUSTED = "exhausted"                    # failed: every engine fell through
BREAKER_OPEN = "breaker_open"              # failed: no engine healthy in time
FAILED = "failed"                          # failed: unexpected library error

RESPONSE_CODES: Tuple[str, ...] = (
    OK,
    OVERLOADED,
    COST_REFUSED,
    DEADLINE_UNMEETABLE,
    INVALID,
    SHUTDOWN,
    DEADLINE_EXPIRED,
    EXHAUSTED,
    BREAKER_OPEN,
    FAILED,
)

#: Codes counted as admission *rejections* (never entered the backlog).
REJECTED_CODES: Tuple[str, ...] = (
    COST_REFUSED,
    DEADLINE_UNMEETABLE,
    INVALID,
    SHUTDOWN,
)

#: Codes counted as load *shedding*.
SHED_CODES: Tuple[str, ...] = (OVERLOADED,)

#: Codes counted as post-admission *failures*.
FAILED_CODES: Tuple[str, ...] = (
    DEADLINE_EXPIRED,
    EXHAUSTED,
    BREAKER_OPEN,
    FAILED,
)


@dataclass(frozen=True)
class ServeRequest:
    """One query submitted to the server.

    ``query`` is a query object or query text (parsed lazily with
    ``free`` as the free-variable order); ``deadline`` and ``max_cost``
    mirror the CLI's resource flags and become the per-query budget;
    ``arrival`` is the submission offset in scheduler seconds used by
    scripted workloads (``Server.run``) — live submissions ignore it.
    ``chain`` overrides the server's default engine chain; the ladder
    and breaker still filter it.  ``seed`` drives every random choice
    made on behalf of this request (engine rng, retry jitter), which is
    what makes whole-server replay possible.
    """

    id: str
    query: Any
    free: Optional[Tuple[str, ...]] = None
    tenant: str = "default"
    quantity: str = "reliability"
    epsilon: float = 0.05
    delta: float = 0.05
    deadline: Optional[float] = None
    max_cost: Optional[int] = None
    chain: Optional[Tuple[str, ...]] = None
    seed: int = 0
    arrival: float = 0.0

    def resolved_query(self):
        """The query object (text is parsed here; raises QueryError)."""
        if isinstance(self.query, str):
            return FOQuery(self.query, tuple(self.free) if self.free else None)
        return self.query

    def make_budget(self, clock) -> Budget:
        """The per-query budget, on the server's scheduler clock."""
        return Budget(
            deadline=self.deadline,
            max_worlds=self.max_cost,
            max_ground_clauses=self.max_cost,
            max_samples=self.max_cost,
            clock=clock,
        )

    def validate(self) -> None:
        """Raise :class:`QueryError` on a malformed request."""
        if not self.id:
            raise QueryError("request id must be non-empty")
        if self.quantity not in ("reliability", "probability"):
            raise QueryError(
                f"unknown quantity {self.quantity!r}; "
                "use 'reliability' or 'probability'"
            )
        for name, value in (("epsilon", self.epsilon), ("delta", self.delta)):
            if not 0.0 < float(value) < 1.0:
                raise QueryError(f"{name} must be in (0, 1), got {value!r}")
        if self.deadline is not None and not self.deadline > 0:
            raise QueryError(
                f"deadline must be positive, got {self.deadline!r}"
            )
        if self.max_cost is not None and not int(self.max_cost) > 0:
            raise QueryError(
                f"max_cost must be positive, got {self.max_cost!r}"
            )
        if self.chain is not None and not self.chain:
            raise QueryError("engine chain override must be non-empty")
        if self.arrival < 0:
            raise QueryError(f"arrival must be >= 0, got {self.arrival!r}")


@dataclass(frozen=True)
class ServeResponse:
    """The structured answer one request receives.

    ``tier`` is the guarantee tier the request was *admitted* at (fixed
    at admission — the ladder never changes it mid-request); ``attempts``
    summarises every engine attempt across all tries as ``(engine,
    outcome)`` pairs; ``retries`` counts re-executions after transient
    faults; ``queued``/``elapsed`` are scheduler-clock seconds.
    """

    id: str
    tenant: str
    code: str
    value: Optional[float] = None
    engine: Optional[str] = None
    guarantee: Optional[str] = None
    tier: Optional[str] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    attempts: Tuple[Tuple[str, str], ...] = ()
    retries: int = 0
    queued: float = 0.0
    elapsed: float = 0.0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.code == OK

    def fingerprint(self) -> Tuple:
        """The replay identity of this response (bit-for-bit checks)."""
        return (
            self.id,
            self.code,
            self.value,
            self.engine,
            self.guarantee,
            self.tier,
            self.attempts,
            self.retries,
        )
