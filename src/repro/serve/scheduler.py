"""The serve driver: one shared worker pool, many concurrent queries.

:class:`Server` is the long-lived multi-query scheduler the ROADMAP's
millions-of-users story needs: requests arrive with per-query budgets
and deadlines, are planned once and assessed by the same cost-model dry
run ``analyze`` uses, queue in a bounded deadline-aware backlog, and
are launched over a fixed-size worker pool with fair-share arbitration
*between* queries — each worker runs the admitted plan through
:func:`repro.runtime.executor.execute`, whose between-engines fair
share nests inside it unchanged.

The driver is an event loop over a scheduler protocol
(``now``/``spawn``/``wait``/``pop_completions``/``poke``): with the
real :class:`ThreadScheduler` workers are daemon threads on the wall
clock; with the deterministic
:class:`~repro.runtime.faults.VirtualScheduler` the *whole server* —
admission decisions, fair-share picks, retries, breaker transitions,
per-query answers — replays bit-for-bit from a scripted fault schedule
and a seed (tests/serve/test_replay.py).

Robustness machinery, each in its own module:

* admission control and the load-shedding guarantee ladder —
  :mod:`repro.serve.admission`;
* retry with exponential backoff + deterministic jitter for transient
  faults (the executor's ``budget_exceeded`` outcome) —
  :mod:`repro.serve.retry`;
* per-engine circuit breakers that trip on repeated failures and heal
  on probes — :mod:`repro.serve.breaker`;
* the bounded backlog with deadline expiry — :mod:`repro.serve.queue`.

Every request receives exactly one structured
:class:`~repro.serve.request.ServeResponse`; the ``serve.*`` counters
(:mod:`repro.serve.metrics`) account for every request, globally and
per tenant.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.runtime.budget import Budget, apply, worker_scope
from repro.runtime.executor import DEFAULT_CHAIN
from repro.util.errors import (
    BudgetExceeded,
    CostRefused,
    FallbackExhausted,
    QueryError,
    ReproError,
    ResourceError,
)

from repro.serve import admission as adm
from repro.serve import metrics
from repro.serve import request as rq
from repro.serve.breaker import CircuitBreaker
from repro.serve.queue import Backlog
from repro.serve.retry import RetryPolicy


class ThreadScheduler:
    """The production scheduler: real daemon threads on the wall clock.

    Completions are queued under a condition variable; the driver
    blocks in :meth:`wait` until a worker finishes or :meth:`poke`
    signals new work.
    """

    is_virtual = False

    def __init__(self):
        self._cond = threading.Condition()
        self._completions: List[int] = []
        self._next_id = 0
        self._poked = False

    def now(self) -> float:
        return time.monotonic()

    def spawn(self, label: str, fn: Callable[[], None]) -> int:
        """Start ``fn`` on a daemon thread; returns its entity id."""
        entity = self._next_id
        self._next_id += 1

        def body():
            try:
                fn()
            finally:
                with self._cond:
                    self._completions.append(entity)
                    self._cond.notify_all()

        threading.Thread(
            target=body, name=f"repro-worker-{entity}-{label}", daemon=True
        ).start()
        return entity

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until a completion is queued (or ``timeout`` elapses).

        Also wakes on :meth:`poke`: the driver blocks here while its
        pool works, and a submission from another thread must be able
        to interrupt the wait even though no worker completed.
        """
        with self._cond:
            if self._completions or self._poked:
                self._poked = False
                return
            self._cond.wait(timeout)
            self._poked = False

    def poke(self) -> None:
        """Wake a driver blocked in :meth:`wait` (new work arrived).

        The poke is latched: a poke landing *between* two waits makes
        the next wait return immediately instead of being lost — a
        submission racing the driver's loop can never strand a request
        in the inbox until an unrelated completion.
        """
        with self._cond:
            self._poked = True
            self._cond.notify_all()

    def pop_completions(self) -> List[int]:
        with self._cond:
            done, self._completions = self._completions, []
            return done

    def checkpoint(self) -> None:
        """Worker-side yield point: a no-op on real threads."""


class _Ticket:
    """Mutable per-request state while it lives inside the server."""

    __slots__ = (
        "request",
        "seq",
        "tier",
        "plan",
        "budget",
        "worker_budget",
        "entity",
        "not_before",
        "retries",
        "attempts",
        "last_attempts",
        "submitted_at",
        "admitted_at",
        "first_launch_at",
        "launched_at",
        "outcome",
        "detail",
        "result",
        "error",
        "last_elapsed",
    )

    def __init__(self, request: "rq.ServeRequest", seq: int, now: float):
        self.request = request
        self.seq = seq
        self.tier = "exact"
        self.plan = None  # admission's Plan: the one this request runs
        self.budget = None
        self.worker_budget: Optional[Budget] = None
        self.entity: Optional[int] = None
        self.not_before = now
        self.retries = 0
        self.attempts: List = []   # executor Attempt records, across tries
        self.last_attempts: Tuple = ()  # the most recent try's attempts
        self.submitted_at = now
        self.admitted_at = now
        self.first_launch_at: Optional[float] = None
        self.launched_at = now
        self.outcome: Optional[str] = None
        self.detail = ""
        self.result = None
        self.error: Optional[BaseException] = None
        self.last_elapsed = 0.0


class Server:
    """A multi-query reliability server over one shared worker pool.

    ``scripted`` use (tests, CLI batches)::

        server = Server(db, pool_size=2, scheduler=VirtualScheduler())
        responses = server.run(requests)      # honours request.arrival

    Live use: :meth:`submit` from any thread (wakes the driver via the
    scheduler's ``poke``), :meth:`run` in the driver thread, and
    :meth:`shutdown` to start rejecting new work while in-flight and
    queued requests drain.
    """

    def __init__(
        self,
        db,
        pool_size: int = 4,
        queue_capacity: int = 16,
        chain: Sequence[str] = DEFAULT_CHAIN,
        ladder: Optional[adm.DegradationLadder] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        cost_model=None,
        scheduler=None,
        cache_dir=None,
        adaptive: bool = True,
    ):
        if pool_size < 1:
            raise ResourceError(f"pool_size must be >= 1, got {pool_size}")
        if queue_capacity < 1:
            raise ResourceError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if cache_dir is not None:
            # Cross-request (and cross-process) warm reuse: every worker
            # shares the process-wide memory LRU, and the persistent tier
            # lets a restarted server start warm on repeated (query, db)
            # pairs — see repro.kernels.cache_persist.
            from repro.kernels import cache_persist

            cache_persist.configure(str(cache_dir))
        self.db = db
        self.pool_size = pool_size
        self.chain = tuple(chain)
        self.ladder = ladder if ladder is not None else adm.DegradationLadder()
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.cost_model = cost_model
        #: Sequential empirical-Bernstein stopping for every request's
        #: sampling engines, plus surrogate-priced admission forecasts
        #: (see repro.runtime.adaptive); off draws the fixed budget.
        self.adaptive = bool(adaptive)
        self.scheduler = scheduler if scheduler is not None else ThreadScheduler()
        self._backlog = Backlog(queue_capacity)
        self._plans = adm.PlanCache()
        self._running: Dict[int, _Ticket] = {}
        self._inbox: List["rq.ServeRequest"] = []
        self._inbox_lock = threading.Lock()
        self._seq = 0
        self._draining = False
        self._tenant_inflight: Dict[str, int] = {}
        self._tenant_service: Dict[str, float] = {}
        #: Every response, in finalisation (driver) order.
        self.responses: List["rq.ServeResponse"] = []

    # -- public surface -------------------------------------------------- #

    def submit(self, request: "rq.ServeRequest") -> None:
        """Enqueue a request from any thread; wakes a waiting driver."""
        with self._inbox_lock:
            self._inbox.append(request)
        self.scheduler.poke()

    def shutdown(self) -> None:
        """Start draining: new submissions are answered ``shutdown``."""
        self._draining = True
        self.scheduler.poke()

    @property
    def draining(self) -> bool:
        return self._draining

    def run(
        self, requests: Iterable["rq.ServeRequest"] = ()
    ) -> List["rq.ServeResponse"]:
        """Drive the server until idle; returns this call's responses.

        ``requests`` is a scripted workload: each request is accepted
        when the scheduler clock reaches its ``arrival`` offset
        (relative to this call's start).  Live submissions via
        :meth:`submit` are drained too.  The call returns once every
        accepted request has been answered and no more are scripted —
        the natural drain/flush of a batch.
        """
        start_index = len(self.responses)
        base = self.scheduler.now()
        scripted = sorted(
            enumerate(requests), key=lambda pair: (pair[1].arrival, pair[0])
        )
        scripted = [request for _, request in scripted]
        while True:
            now = self.scheduler.now()
            while scripted and base + scripted[0].arrival <= now:
                self._accept(scripted.pop(0))
            self._drain_inbox()
            self._step(now)
            if not scripted and self._idle():
                break
            next_arrival = (
                base + scripted[0].arrival - now if scripted else None
            )
            self.scheduler.wait(self._timeout(now, next_arrival))
            self._collect()
        return self.responses[start_index:]

    # -- driver internals ------------------------------------------------ #

    def _idle(self) -> bool:
        with self._inbox_lock:
            inbox = bool(self._inbox)
        return not inbox and not len(self._backlog) and not self._running

    def _drain_inbox(self) -> None:
        with self._inbox_lock:
            arrived, self._inbox = self._inbox, []
        for request in arrived:
            self._accept(request)

    def _tenants(self, tenant: str) -> None:
        self._tenant_inflight.setdefault(tenant, 0)
        self._tenant_service.setdefault(tenant, 0.0)

    def _accept(self, request: "rq.ServeRequest") -> None:
        now = self.scheduler.now()
        seq = self._seq
        self._seq += 1
        tenant = request.tenant
        self._tenants(tenant)
        metrics.count(metrics.SUBMITTED, tenant)
        ticket = _Ticket(request, seq, now)
        try:
            request.validate()
        except QueryError as exc:
            self._reject(ticket, rq.INVALID, str(exc))
            return
        if self._draining:
            self._reject(ticket, rq.SHUTDOWN, "server is draining")
            return
        if self._backlog.full:
            metrics.count(metrics.SHED, tenant)
            obs.event(
                "serve.shed",
                id=request.id,
                tenant=tenant,
                depth=len(self._backlog),
            )
            self._finalize(
                ticket,
                rq.OVERLOADED,
                f"backlog full ({self._backlog.capacity} queued)",
                admitted=False,
            )
            return
        budget = request.make_budget(clock=self.scheduler.now).start()
        ticket.budget = budget
        depth = len(self._backlog)
        decision = adm.assess(
            self.db,
            request,
            tuple(request.chain) if request.chain else self.chain,
            depth,
            self.ladder,
            budget,
            self.cost_model,
            adaptive=self.adaptive,
            plans=self._plans,
        )
        ticket.tier = decision.tier
        ticket.plan = decision.plan
        if decision.code != adm.ADMITTED:
            self._reject(ticket, decision.code, decision.detail)
            return
        metrics.count(metrics.ADMITTED, tenant)
        if decision.tier != "exact":
            metrics.count(metrics.DEGRADED, tenant)
        obs.event(
            "serve.admitted",
            id=request.id,
            tenant=tenant,
            tier=decision.tier,
            depth=depth,
            predicted_seconds=decision.predicted_seconds,
        )
        ticket.admitted_at = now
        self._backlog.push(ticket)
        obs.gauge(metrics.QUEUE_DEPTH, len(self._backlog))

    def _reject(self, ticket: _Ticket, code: str, detail: str) -> None:
        metrics.count(metrics.REJECTED, ticket.request.tenant)
        self._finalize(ticket, code, detail, admitted=False)

    def _step(self, now: float) -> None:
        """Expire the overdue, then launch ready work fair-share."""
        for ticket in self._backlog.take_expired(now):
            metrics.count(metrics.EXPIRED, ticket.request.tenant)
            self._finalize(
                ticket, rq.DEADLINE_EXPIRED, "deadline expired in the backlog"
            )
        ready = self._backlog.ready(now)
        while ready and len(self._running) < self.pool_size:
            ticket = min(ready, key=self._fair_key)
            ready.remove(ticket)
            self._backlog.remove(ticket)
            self._launch(ticket, now)
        obs.gauge(metrics.QUEUE_DEPTH, len(self._backlog))

    def _fair_key(self, ticket: _Ticket):
        """Fair-share pick order *between* queries.

        Least-served tenants first (in-flight count, then accumulated
        service seconds), then the most urgent deadline, then FIFO —
        every component read off the scheduler clock or driver state,
        so the pick replays deterministically.
        """
        tenant = ticket.request.tenant
        remaining = ticket.budget.remaining_time()
        return (
            self._tenant_inflight.get(tenant, 0),
            self._tenant_service.get(tenant, 0.0),
            remaining if remaining is not None else float("inf"),
            ticket.seq,
        )

    def _timeout(
        self, now: float, next_arrival: Optional[float]
    ) -> Optional[float]:
        """Seconds until the next timed driver event, or ``None``.

        Completions wake the driver by themselves; timers — scripted
        arrivals, retry backoffs, breaker reopen times, queued deadline
        expiries — must bound the wait so the virtual clock advances to
        them even when nothing is running.
        """
        horizon = self._backlog.next_event(now)
        if next_arrival is not None and (
            horizon is None or next_arrival < horizon
        ):
            horizon = next_arrival
        if horizon is None:
            return None
        return max(0.0, horizon)

    def _launch(self, ticket: _Ticket, now: float) -> None:
        request = ticket.request
        chain = ticket.plan.chain
        allowed = tuple(
            engine for engine in chain if self.breaker.allow(engine, now)
        )
        if not allowed:
            reopens = [self.breaker.reopen_at(engine) for engine in chain]
            reopens = [at for at in reopens if at is not None]
            wake = min(reopens) if reopens else None
            remaining = ticket.budget.remaining_time()
            if wake is not None and (
                remaining is None or wake - now < remaining
            ):
                # Wait for the earliest breaker probe window instead of
                # failing: the engine may heal within the deadline.
                ticket.not_before = wake
                self._backlog.push(ticket)
                obs.gauge(metrics.QUEUE_DEPTH, len(self._backlog))
                return
            self._finalize(
                ticket,
                rq.BREAKER_OPEN,
                "every admissible engine's circuit breaker is open",
            )
            return
        ticket.worker_budget = ticket.budget.child(
            hook=self.scheduler.checkpoint
        )
        ticket.launched_at = now
        if ticket.first_launch_at is None:
            ticket.first_launch_at = now
        tenant = request.tenant
        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        body = self._make_body(ticket, allowed)
        ticket.entity = self.scheduler.spawn(request.id, body)
        self._running[ticket.entity] = ticket
        obs.event(
            "serve.launch",
            id=request.id,
            tenant=tenant,
            try_index=ticket.retries,
            chain=",".join(allowed),
        )

    def _make_body(self, ticket: _Ticket, chain: Tuple[str, ...]):
        from repro.runtime import executor

        request = ticket.request
        scheduler = self.scheduler
        worker_budget = ticket.worker_budget
        # Admission's plan, narrowed to the engines the breakers allow:
        # no try — first or retry — parses, classifies or plans again.
        plan = replace(ticket.plan, chain=chain)
        # Each try gets its own derived generator: a retry re-samples
        # instead of deterministically replaying the failed draw, while
        # the derivation itself stays replayable from the request seed.
        rng_base = random.Random(
            f"{request.seed}:{request.id}:try:{ticket.retries}"
        ).getrandbits(64)

        def body():
            with worker_scope(scheduler):
                t0 = scheduler.now()
                try:
                    with apply(worker_budget):
                        result = executor.execute(plan, worker_budget, rng_base)
                    ticket.result = result
                    ticket.outcome = "ok"
                    ticket.last_attempts = tuple(result.attempts)
                    ticket.attempts.extend(result.attempts)
                except FallbackExhausted as exc:
                    ticket.outcome = "exhausted"
                    ticket.detail = str(exc)
                    ticket.last_attempts = tuple(exc.attempts)
                    ticket.attempts.extend(exc.attempts)
                except (CostRefused, BudgetExceeded) as exc:
                    outcome, _ = executor.classify_failure(exc)
                    ticket.outcome = outcome
                    ticket.detail = str(exc)
                    ticket.last_attempts = ()
                except ReproError as exc:
                    ticket.outcome = "failed"
                    ticket.detail = str(exc)
                    ticket.last_attempts = ()
                except BaseException as exc:  # a genuine bug: carry out
                    ticket.outcome = "crashed"
                    ticket.error = exc
                finally:
                    ticket.last_elapsed = scheduler.now() - t0

        return body

    def _collect(self) -> None:
        for entity in self.scheduler.pop_completions():
            self._on_complete(self._running[entity])

    def _on_complete(self, ticket: _Ticket) -> None:
        now = self.scheduler.now()
        self._running.pop(ticket.entity, None)
        tenant = ticket.request.tenant
        self._tenant_inflight[tenant] = max(
            0, self._tenant_inflight.get(tenant, 1) - 1
        )
        self._tenant_service[tenant] = (
            self._tenant_service.get(tenant, 0.0) + ticket.last_elapsed
        )
        if ticket.outcome == "crashed":
            raise ticket.error
        # Charge the try to the per-query budget: a retry continues the
        # same allowance, it does not get a fresh one — retries cure
        # transient faults, not exhaustion.
        ticket.worker_budget.close()
        for attempt in ticket.last_attempts:
            self.breaker.record(attempt.engine, attempt.outcome, now)
        if ticket.outcome == "ok":
            self._finalize(ticket, rq.OK)
            return
        outcomes = [a.outcome for a in ticket.last_attempts] or [ticket.outcome]
        if self.retry.should_retry(ticket.retries, outcomes):
            delay = self.retry.delay(ticket.retries, ticket.request.id)
            remaining = ticket.budget.remaining_time()
            if remaining is None or remaining > delay:
                ticket.retries += 1
                metrics.count(metrics.RETRIES, tenant)
                ticket.not_before = now + delay
                ticket.outcome = None
                ticket.detail = ""
                # Already admitted: re-entry bypasses the capacity check.
                self._backlog.push(ticket)
                obs.gauge(metrics.QUEUE_DEPTH, len(self._backlog))
                obs.event(
                    "serve.retry",
                    id=ticket.request.id,
                    tenant=tenant,
                    retry=ticket.retries,
                    delay=delay,
                )
                return
        remaining = ticket.budget.remaining_time()
        expired = remaining is not None and remaining <= 0
        if expired:
            metrics.count(metrics.EXPIRED, tenant)
            self._finalize(
                ticket,
                rq.DEADLINE_EXPIRED,
                ticket.detail or "deadline expired mid-flight",
            )
        elif ticket.outcome == "exhausted":
            self._finalize(ticket, rq.EXHAUSTED, ticket.detail)
        else:
            self._finalize(ticket, rq.FAILED, ticket.detail)

    def _finalize(
        self,
        ticket: _Ticket,
        code: str,
        detail: str = "",
        admitted: bool = True,
    ) -> None:
        now = self.scheduler.now()
        request = ticket.request
        tenant = request.tenant
        result = ticket.result if code == rq.OK else None
        queued = (
            (ticket.first_launch_at or now) - ticket.admitted_at
            if admitted
            else 0.0
        )
        response = rq.ServeResponse(
            id=request.id,
            tenant=tenant,
            code=code,
            value=result.value if result is not None else None,
            engine=result.engine if result is not None else None,
            guarantee=result.guarantee if result is not None else None,
            tier=ticket.tier if admitted else None,
            epsilon=result.epsilon if result is not None else None,
            delta=result.delta if result is not None else None,
            attempts=tuple(
                (attempt.engine, attempt.outcome)
                for attempt in ticket.attempts
            ),
            retries=ticket.retries,
            queued=queued,
            elapsed=now - ticket.submitted_at,
            detail=detail,
        )
        self.responses.append(response)
        if admitted:
            if code == rq.OK:
                metrics.count(metrics.COMPLETED, tenant)
            else:
                metrics.count(metrics.FAILED, tenant)
            metrics.observe(metrics.QUEUE_WAIT, tenant, queued)
            metrics.observe(metrics.SERVICE, tenant, ticket.last_elapsed)
        obs.event(
            "serve.response",
            id=request.id,
            tenant=tenant,
            code=code,
            engine=response.engine,
            tier=response.tier,
            retries=response.retries,
        )
