"""Behavioural tests of the :class:`repro.serve.Server` driver.

Every test runs on the virtual clock: admission, shedding, degradation,
retries, breaker trips, expiry, and shutdown all replay from scripted
workloads, and the ``serve.*`` counters must account for every request.
"""

import pytest

from repro import obs
from repro.runtime import faults
from repro.serve import (
    CircuitBreaker,
    DegradationLadder,
    RetryPolicy,
    ServeRequest,
    Server,
)
from repro.util.errors import ResourceError

from tests.serve.conftest import QUERY


def serve(db, requests, recorder=None, **kwargs):
    """Run one scripted batch on a fresh virtual-clock server."""
    kwargs.setdefault("scheduler", faults.VirtualScheduler(default_tick=0.001))
    server = Server(db, **kwargs)
    if recorder is None:
        recorder = obs.StatsRecorder()
    with obs.use(recorder):
        responses = server.run(requests)
    return server, responses, recorder.summary()["counters"]


def check_accounting(counters):
    """The two invariants every serving run must satisfy."""
    submitted = counters.get("serve.submitted", 0)
    admitted = counters.get("serve.admitted", 0)
    rejected = counters.get("serve.rejected", 0)
    shed = counters.get("serve.shed", 0)
    completed = counters.get("serve.completed", 0)
    failed = counters.get("serve.failed", 0)
    assert submitted == admitted + rejected + shed
    assert admitted == completed + failed


class TestBatchServing:
    def test_mixed_batch_completes_and_accounts(self, db):
        requests = [
            ServeRequest(
                id=f"q{i}",
                query=QUERY,
                tenant="a" if i % 2 == 0 else "b",
                deadline=5.0,
                seed=i,
            )
            for i in range(6)
        ]
        server, responses, counters = serve(
            db, requests, pool_size=2, queue_capacity=4
        )
        assert len(responses) == 6
        by_code = {}
        for response in responses:
            by_code.setdefault(response.code, []).append(response)
        # Capacity 4: two of the six simultaneous arrivals are shed.
        assert len(by_code["ok"]) == 4
        assert len(by_code["overloaded"]) == 2
        values = {response.value for response in by_code["ok"]}
        assert len(values) == 1  # same query, same exact answer
        check_accounting(counters)
        assert counters["serve.shed"] == 2
        assert counters["serve.completed"] == 4
        # Per-tenant mirrors account for the same totals.
        for tenant in ("a", "b"):
            assert counters[f"serve.tenant.{tenant}.submitted"] == 3

    def test_every_request_gets_exactly_one_response(self, db):
        requests = [
            ServeRequest(id=f"q{i}", query=QUERY, seed=i) for i in range(8)
        ]
        _, responses, counters = serve(
            db, requests, pool_size=2, queue_capacity=16
        )
        assert sorted(r.id for r in responses) == sorted(r.id for r in requests)
        check_accounting(counters)

    def test_invalid_request_is_structured_not_raised(self, db):
        requests = [
            ServeRequest(id="bad", query=QUERY, epsilon=2.0),
            ServeRequest(id="good", query=QUERY),
        ]
        _, responses, counters = serve(db, requests)
        by_id = {response.id: response for response in responses}
        assert by_id["bad"].code == "invalid"
        assert "epsilon" in by_id["bad"].detail
        assert by_id["good"].ok
        assert counters["serve.rejected"] == 1
        check_accounting(counters)

    def test_unparseable_query_is_invalid(self, db):
        _, responses, counters = serve(
            db, [ServeRequest(id="q", query="exists exists x.")]
        )
        assert responses[0].code == "invalid"
        check_accounting(counters)


class TestAdmissionControl:
    def test_cost_refused_when_no_engine_fits(self, db):
        # exact alone cannot fit in a 2-world cap on this database.
        request = ServeRequest(
            id="q", query=QUERY, chain=("exact",), max_cost=2
        )
        _, responses, counters = serve(db, [request])
        assert responses[0].code == "cost_refused"
        assert "exact" in responses[0].detail
        assert counters["serve.rejected"] == 1
        check_accounting(counters)

    # The unsafe query's statically skipped ``safe_lifted`` is forecast
    # at 0 s, yet it is no engine to fall forward to.
    @pytest.mark.parametrize(
        "query",
        [QUERY, "exists x. exists y. E(x, y) & S(x) & S(y)"],
        ids=["safe", "unsafe"],
    )
    def test_deadline_unmeetable_is_refused_up_front(self, db, query):
        request = ServeRequest(id="q", query=query, deadline=1e-9)
        _, responses, counters = serve(db, [request])
        assert responses[0].code == "deadline_unmeetable"
        assert "deadline" in responses[0].detail
        check_accounting(counters)

    def test_shutdown_rejects_new_work(self, db):
        scheduler = faults.VirtualScheduler(default_tick=0.001)
        server = Server(db, scheduler=scheduler)
        with obs.use(obs.StatsRecorder()) :
            first = server.run([ServeRequest(id="before", query=QUERY)])
            assert first[0].ok
            server.shutdown()
            assert server.draining
            second = server.run([ServeRequest(id="after", query=QUERY)])
        assert second[0].code == "shutdown"

    def test_pool_and_queue_bounds_are_validated(self, db):
        with pytest.raises(ResourceError):
            Server(db, pool_size=0)
        with pytest.raises(ResourceError):
            Server(db, queue_capacity=0)


class TestDegradationLadderInService:
    def test_tier_degrades_with_depth_and_recovers_after_drain(self, db):
        # Six simultaneous arrivals walk the ladder; a seventh arrives
        # after the backlog has drained and is admitted at full strength.
        requests = [
            ServeRequest(
                id=f"q{i}", query=QUERY, seed=i,
                epsilon=0.3, delta=0.3,
            )
            for i in range(6)
        ] + [
            ServeRequest(
                id="late", query=QUERY, seed=99, arrival=60.0,
                epsilon=0.3, delta=0.3,
            )
        ]
        _, responses, counters = serve(
            db,
            requests,
            pool_size=1,
            queue_capacity=12,
            ladder=DegradationLadder(relative_at=2, additive_at=4),
        )
        tiers = {response.id: response.tier for response in responses}
        assert [tiers[f"q{i}"] for i in range(6)] == [
            "exact",
            "exact",
            "relative",
            "relative",
            "additive",
            "additive",
        ]
        # The tier was fixed at admission and never changed mid-flight;
        # once the burst drained, admissions recovered full strength.
        assert tiers["late"] == "exact"
        assert counters["serve.degraded"] == 4
        assert all(response.ok for response in responses)
        # Degraded admissions shed the expensive enumeration engine, but
        # QUERY is statically safe: the dichotomy router keeps the
        # polynomial safe_lifted tier through degradation, so degraded
        # requests answer exactly *cheaper* than a sampler would.
        for response in responses:
            if tiers[response.id] != "exact":
                assert response.engine == "safe_lifted"
                assert "exact" not in [a[0] for a in response.attempts]
        check_accounting(counters)


class TestRetriesAndBreaker:
    def test_transient_fault_retries_and_succeeds(self, db):
        request = ServeRequest(
            id="r1", query=QUERY, chain=("exact",), deadline=10.0
        )
        with faults.inject(
            {"exact": faults.ScheduledFault(fault=faults.TimeoutFault(), at=(0,))}
        ):
            _, responses, counters = serve(
                db,
                [request],
                pool_size=1,
                retry=RetryPolicy(max_retries=2, base_delay=0.1),
            )
        response = responses[0]
        assert response.ok
        assert response.retries == 1
        assert response.attempts == (
            ("exact", "budget_exceeded"),
            ("exact", "ok"),
        )
        assert counters["serve.retries"] == 1
        assert counters["serve.completed"] == 1
        check_accounting(counters)

    def test_permanent_failure_does_not_retry(self, db):
        # A cost refusal at execution time (past the admission dry run)
        # is permanent: fallback exhausts and no retry is attempted.
        from repro.util.errors import CostRefused

        request = ServeRequest(id="perm", query=QUERY, chain=("exact",))
        with faults.inject(
            {
                "exact": faults.ExceptionFault(
                    error=CostRefused("engine woke up grumpy", 2, 1)
                )
            }
        ):
            _, responses, counters = serve(
                db, [request], retry=RetryPolicy(max_retries=3)
            )
        assert responses[0].code == "exhausted"
        assert responses[0].retries == 0
        assert "serve.retries" not in counters
        check_accounting(counters)

    def test_breaker_trips_and_later_requests_route_around(self, db):
        # The first two failures open safe_lifted's breaker; the next
        # two requests skip straight to a healthy engine.
        requests = [
            ServeRequest(id=f"b{i}", query=QUERY, deadline=10.0, seed=i)
            for i in range(4)
        ]
        with faults.inject(
            {
                "safe_lifted": faults.ScheduledFault(
                    fault=faults.TimeoutFault(), at=(0, 1, 2)
                )
            }
        ):
            server, responses, counters = serve(
                db,
                requests,
                pool_size=1,
                retry=RetryPolicy(max_retries=0),
                breaker=CircuitBreaker(threshold=2, cooldown=0.5),
            )
        assert [response.code for response in responses] == ["ok"] * 4
        assert [response.attempts[0][0] for response in responses] == [
            "safe_lifted",
            "safe_lifted",
            "exact",
            "exact",
        ]
        trips = [
            t for t in server.breaker.transitions if t[2:] == ("closed", "open")
        ]
        assert len(trips) == 1 and trips[0][1] == "safe_lifted"
        check_accounting(counters)

    def test_breaker_open_fails_request_that_cannot_wait(self, db):
        # exact is the only admissible engine and its breaker opens on
        # the first request; the second cannot outlive the cooldown.
        requests = [
            ServeRequest(
                id=f"o{i}", query=QUERY, chain=("exact",), deadline=2.0, seed=i
            )
            for i in range(2)
        ]
        with faults.inject({"exact": faults.TimeoutFault()}):
            _, responses, counters = serve(
                db,
                requests,
                pool_size=1,
                retry=RetryPolicy(max_retries=0),
                breaker=CircuitBreaker(threshold=1, cooldown=30.0),
            )
        by_id = {response.id: response for response in responses}
        assert by_id["o0"].code == "exhausted"
        assert by_id["o1"].code == "breaker_open"
        assert counters["serve.failed"] == 2
        check_accounting(counters)

    def test_breaker_heals_and_requeued_ticket_launches(self, db):
        # o1 arrives while exact's breaker is open but its deadline
        # covers the cooldown: it parks in the backlog, wakes at the
        # probe window, and succeeds once the fault schedule clears.
        requests = [
            ServeRequest(
                id="o0", query=QUERY, chain=("exact",), deadline=10.0, seed=0
            ),
            ServeRequest(
                id="o1", query=QUERY, chain=("exact",), deadline=10.0, seed=1,
                arrival=0.05,
            ),
        ]
        with faults.inject(
            {"exact": faults.ScheduledFault(fault=faults.TimeoutFault(), at=(0,))}
        ):
            server, responses, counters = serve(
                db,
                requests,
                pool_size=1,
                retry=RetryPolicy(max_retries=0),
                breaker=CircuitBreaker(threshold=1, cooldown=0.5),
            )
        by_id = {response.id: response for response in responses}
        assert by_id["o0"].code == "exhausted"
        assert by_id["o1"].ok
        states = [t[2:] for t in server.breaker.transitions]
        assert ("closed", "open") in states
        assert ("half_open", "closed") in states
        check_accounting(counters)


class TestDeadlines:
    def test_urgent_request_launches_first(self, db):
        # Same tenant, simultaneous arrival, one worker: the fair-share
        # pick is earliest-deadline-first, so the tight deadline jumps
        # ahead of the loose one regardless of submission order.
        requests = [
            ServeRequest(id="loose", query=QUERY, deadline=50.0, seed=0),
            ServeRequest(id="tight", query=QUERY, deadline=0.5, seed=1),
        ]
        _, responses, counters = serve(db, requests, pool_size=1)
        assert [response.id for response in responses] == ["tight", "loose"]
        assert all(response.ok for response in responses)
        check_accounting(counters)

    def test_deadline_expires_in_backlog(self, db):
        # q0 stalls the single worker for a virtual second; q1 arrives
        # behind it, its deadline passes while queued, and it never
        # launches.
        requests = [
            ServeRequest(id="q0", query=QUERY, deadline=5.0, seed=0),
            ServeRequest(
                id="q1", query=QUERY, deadline=0.3, seed=1, arrival=0.1
            ),
        ]
        with faults.inject({"safe_lifted": faults.SlowdownFault(seconds=1.0)}):
            _, responses, counters = serve(db, requests, pool_size=1)
        by_id = {response.id: response for response in responses}
        assert by_id["q0"].ok
        assert by_id["q1"].code == "deadline_expired"
        assert by_id["q1"].attempts == ()  # never launched
        assert counters["serve.expired"] == 1
        check_accounting(counters)


def capture_budgets(monkeypatch):
    """Record each request's per-query budget as the server makes it."""
    budgets = {}
    make_budget = ServeRequest.make_budget

    def capture(request, clock):
        budgets[request.id] = make_budget(request, clock)
        return budgets[request.id]

    monkeypatch.setattr(ServeRequest, "make_budget", capture)
    return budgets


class TestBudgetLedger:
    def test_retries_continue_the_world_allowance(self, db, monkeypatch):
        # Each try overshoots the world cap by one checkpoint unit and
        # retries; the retry starts from the ledger the failed try left,
        # not from a fresh allowance.
        budgets = capture_budgets(monkeypatch)
        request = ServeRequest(
            id="q", query="S(x) | S(y)", free=("x", "y"), max_cost=16
        )
        _, responses, _ = serve(
            db, [request], pool_size=1, chain=("exact",)
        )
        response = responses[0]
        assert response.code == "exhausted"
        assert response.retries >= 1
        attempts = len(response.attempts)
        assert budgets["q"].worlds <= 16 + attempts

    def test_raced_request_is_charged_like_an_unraced_one(self, db, monkeypatch):
        # A one-engine race is deterministic: the racer draws exactly
        # the samples the walk would, and both reach the per-query
        # budget.
        budgets = capture_budgets(monkeypatch)
        requests = [
            ServeRequest(
                id=f"q-{race}",
                query="exists x. exists y. E(x, y) & E(y, x)",
                max_cost=10**6,
                epsilon=0.2,
                delta=0.2,
                race=race,
                seed=3,
            )
            for race in (False, True)
        ]
        responses = Server(db, pool_size=1, chain=("karp_luby",)).run(requests)
        assert [(r.code, r.engine) for r in responses] == [
            ("ok", "karp_luby"),
            ("ok", "karp_luby"),
        ]
        assert budgets["q-False"].samples > 0
        assert budgets["q-True"].samples == budgets["q-False"].samples


def count_planning(monkeypatch):
    """Count parses, plans and classifications from here on."""
    from collections import Counter

    from repro.logic import safety
    from repro.logic.evaluator import FOQuery
    from repro.runtime import plan

    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(FOQuery, "__init__", counting("parse", FOQuery.__init__))
    monkeypatch.setattr(plan, "make_plan", counting("plan", plan.make_plan))
    monkeypatch.setattr(
        safety,
        "classify_dichotomy",
        counting("classify", safety.classify_dichotomy),
    )
    return counts


class TestPlannedOnce:
    def test_cold_request_plans_once_and_hot_request_reuses_it(
        self, db, monkeypatch
    ):
        server = Server(db, scheduler=faults.VirtualScheduler(default_tick=0.001))
        counts = count_planning(monkeypatch)
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            (cold,) = server.run([ServeRequest(id="cold", query=QUERY)])
            assert dict(counts) == {"parse": 1, "plan": 1, "classify": 1}
            counts.clear()
            (hot,) = server.run([ServeRequest(id="hot", query=QUERY, seed=1)])
        assert counts["parse"] == 0 and counts["classify"] == 0
        assert cold.ok and hot.ok and hot.value == cold.value
        counters = recorder.summary()["counters"]
        assert counters["serve.plan_cache.misses"] == 1
        assert counters["serve.plan_cache.hits"] == 1

    def test_retry_plans_nothing(self, db, monkeypatch):
        # karp_luby, unlike exact's lifted fast path, classifies nothing
        # itself: every count below is the server's own.
        counts = count_planning(monkeypatch)
        request = ServeRequest(
            id="r1", query=QUERY, chain=("karp_luby",), deadline=10.0,
            epsilon=0.3, delta=0.3,
        )
        timeout = faults.ScheduledFault(fault=faults.TimeoutFault(), at=(0,))
        with faults.inject({"karp_luby": timeout}):
            _, responses, _ = serve(
                db,
                [request],
                pool_size=1,
                retry=RetryPolicy(max_retries=2, base_delay=0.1),
            )
        assert responses[0].ok and responses[0].retries == 1
        assert dict(counts) == {"parse": 1, "plan": 1, "classify": 1}

    def test_exact_engine_runs_the_plans_verdict(self, db, monkeypatch):
        # The exact engine's lifted route reads the verdict admission
        # already holds instead of classifying the query a second time.
        from repro.reliability.exact import reliability

        expected = float(reliability(db, QUERY))
        counts = count_planning(monkeypatch)
        _, responses, _ = serve(
            db, [ServeRequest(id="e", query=QUERY, chain=("exact",))]
        )
        assert responses[0].ok and responses[0].engine == "exact"
        assert responses[0].value == expected
        assert dict(counts) == {"parse": 1, "plan": 1, "classify": 1}

    def test_plan_cache_never_grows_past_its_bound(self, db, monkeypatch):
        from repro.serve import admission

        monkeypatch.setattr(admission, "PLAN_CACHE_SIZE", 2)
        queries = ["exists x. S(x)", QUERY, "exists x. exists y. E(x, y)"]
        server, _, counters = serve(
            db,
            [
                ServeRequest(id=f"q{i}", query=text, arrival=float(i))
                for i, text in enumerate(queries + queries[:1])
            ],
        )
        assert len(server._plans) == 2
        # The first query was the least recently used: evicted, replanned.
        assert counters["serve.plan_cache.misses"] == 4
        assert "serve.plan_cache.hits" not in counters

    def test_model_installed_after_caching_reorders_the_chain(self, db):
        from repro.runtime import costmodel
        from repro.runtime.costmodel import (
            FEATURE_NAMES,
            CostModel,
            EngineCalibration,
        )

        server = Server(
            db,
            chain=("karp_luby", "montecarlo"),
            scheduler=faults.VirtualScheduler(default_tick=0.001),
        )

        def ask(name):
            request = ServeRequest(
                id=name, query=QUERY, epsilon=0.3, delta=0.3, seed=5
            )
            (response,) = server.run([request])
            assert response.ok
            return response.engine

        with costmodel.use_model(None):
            assert ask("cold") == "karp_luby"
            # karp_luby priced far above montecarlo, both additive.
            width = len(FEATURE_NAMES) + 1
            slow = CostModel(
                {"karp_luby": EngineCalibration((50.0,) * width, 9, 0.0)}
            )
            with costmodel.use_model(slow):
                assert ask("hot") == "montecarlo"
        assert len(server._plans) == 1

    def test_each_ladder_tier_gets_its_own_entry(self, db):
        # pool 1, two simultaneous arrivals: the first is admitted at
        # depth 0 (exact tier), the second at depth 1 (relative tier).
        unsafe = "exists x. exists y. E(x, y) & S(x) & S(y)"
        server = Server(
            db,
            pool_size=1,
            ladder=DegradationLadder(relative_at=1, additive_at=None),
            scheduler=faults.VirtualScheduler(default_tick=0.001),
        )
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            for batch in range(2):
                responses = server.run(
                    [
                        ServeRequest(
                            id=f"b{batch}-{i}", query=unsafe, seed=i,
                            quantity="probability", epsilon=0.3, delta=0.3,
                        )
                        for i in range(2)
                    ]
                )
                by_tier = {r.tier: r.engine for r in responses}
                assert all(r.ok for r in responses)
                assert by_tier == {"exact": "exact", "relative": "karp_luby"}
        assert len(server._plans) == 2
        counters = recorder.summary()["counters"]
        assert counters["serve.plan_cache.misses"] == 2
        assert counters["serve.plan_cache.hits"] == 2

    def test_raced_request_runs_admissions_plan_with_the_overlap(
        self, db, monkeypatch
    ):
        from dataclasses import replace

        from repro.runtime import executor, racing
        from repro.serve import admission

        decisions, executed = [], []
        assess, execute = admission.assess, executor.execute

        def recording_assess(*args, **kwargs):
            decisions.append(assess(*args, **kwargs))
            return decisions[-1]

        def recording_execute(plan, *args, **kwargs):
            if "engines" not in kwargs:  # not the forecast's stub walk
                executed.append(plan)
            return execute(plan, *args, **kwargs)

        monkeypatch.setattr(admission, "assess", recording_assess)
        monkeypatch.setattr(executor, "execute", recording_execute)
        (response,) = Server(db, pool_size=1).run(
            [ServeRequest(id="r", query=QUERY, race=True)]
        )
        assert response.ok and response.engine == "safe_lifted"
        (decision,) = decisions
        (plan,) = executed
        assert plan == replace(decision.plan, overlap=racing.DEFAULT_OVERLAP)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "query, quantity",
        [
            (QUERY, "reliability"),
            ("exists x. exists y. E(x, y) & S(x) & S(y)", "probability"),
            ("exists x. exists y. E(x, y) & S(x) & S(y)", "reliability"),
        ],
    )
    def test_served_answers_match_run_with_fallback(
        self, db, seed, query, quantity
    ):
        import random

        from repro.logic.evaluator import FOQuery
        from repro.runtime.executor import run_with_fallback

        chain = ("safe_lifted", "karp_luby", "montecarlo")
        request = ServeRequest(
            id="q", query=query, quantity=quantity, epsilon=0.2, delta=0.2,
            seed=seed,
        )
        _, responses, _ = serve(db, [request], chain=chain)
        expected = run_with_fallback(
            db, FOQuery(query), chain=chain, quantity=quantity,
            epsilon=0.2, delta=0.2, rng=random.Random(f"{seed}:q:try:0"),
        )
        assert (responses[0].value, responses[0].engine) == (
            expected.value, expected.engine,
        )
