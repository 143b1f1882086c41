"""Tests for metafinite reliability (Theorem 6.2)."""

from fractions import Fraction
from itertools import product

import pytest

from repro import obs
from repro.metafinite.database import (
    FunctionalDatabase,
    UnreliableFunctionalDatabase,
)
from repro.metafinite.reliability import (
    estimate_metafinite_reliability,
    metafinite_expected_error,
    metafinite_reliability,
    metafinite_reliability_qf,
)
from repro.metafinite.terms import MetafiniteQuery, aggregate, apply_op, func, num
from repro.runtime.budget import Budget, apply
from repro.util.errors import BudgetExceeded, CostRefused, QueryError
from repro.util.rng import make_rng


@pytest.fixture
def udb():
    observed = FunctionalDatabase(
        ("a", "b"),
        {"w": {("a",): 3, ("b",): 5}},
    )
    return UnreliableFunctionalDatabase(
        observed,
        {
            ("w", ("a",)): {3: "1/2", 4: "1/2"},
            ("w", ("b",)): {5: "3/4", 6: "1/4"},
        },
    )


class TestExactEngines:
    def test_sum_query_error_probability(self, udb):
        # Sum differs from 8 unless both readings stay put: P = 1/2 * 3/4.
        query = MetafiniteQuery(aggregate("sum", ["x"], func("w", "x")))
        assert metafinite_expected_error(udb, query) == 1 - Fraction(3, 8)
        assert metafinite_reliability(udb, query) == Fraction(3, 8)

    def test_max_query_more_robust(self, udb):
        # max = 5 unless w(b) jumps to 6: P(wrong) = 1/4.
        query = MetafiniteQuery(aggregate("max", ["x"], func("w", "x")))
        assert metafinite_reliability(udb, query) == Fraction(3, 4)

    def test_unary_query_reliability(self, udb):
        # Per-element error: a differs w.p. 1/2, b w.p. 1/4; H = 3/4.
        query = MetafiniteQuery(func("w", "x"), ["x"])
        assert metafinite_expected_error(udb, query) == Fraction(3, 4)
        assert metafinite_reliability(udb, query) == 1 - Fraction(3, 8)

    def test_qf_engine_matches_general(self, udb):
        query = MetafiniteQuery(
            apply_op("mul", func("w", "x"), num(2)), ["x"]
        )
        fast = metafinite_reliability_qf(udb, query)
        general = metafinite_reliability(udb, query)
        assert fast == general

    def test_qf_engine_rejects_aggregates(self, udb):
        query = MetafiniteQuery(aggregate("sum", ["x"], func("w", "x")))
        with pytest.raises(QueryError):
            metafinite_reliability_qf(udb, query)

    def test_constant_query_fully_reliable(self, udb):
        query = MetafiniteQuery(num(42))
        assert metafinite_reliability(udb, query) == 1

    def test_robust_aggregate_fully_reliable(self, udb):
        # min(w) is 3 in every world (w(a) in {3,4}, w(b) in {5,6})?  No:
        # w(a) can be 4, so min is 3 or 4.  Use a threshold query instead:
        # count of readings >= 3 is always 2.
        query = MetafiniteQuery(
            aggregate("count", ["x"], apply_op("geq", func("w", "x"), num(3)))
        )
        assert metafinite_reliability(udb, query) == 1

    def test_qf_engine_scales_past_world_enumeration(self):
        # 24 uncertain unary entries: 2^24 worlds, but the QF engine looks
        # at one entry per tuple.
        rng = make_rng(5)
        names = tuple(f"s{i}" for i in range(24))
        observed = FunctionalDatabase(
            names, {"w": {(s,): 10 for s in names}}
        )
        udb = UnreliableFunctionalDatabase(
            observed,
            {("w", (s,)): {10: "9/10", 11: "1/10"} for s in names},
        )
        query = MetafiniteQuery(func("w", "x"), ["x"])
        assert metafinite_reliability_qf(udb, query) == Fraction(9, 10)


def _six_entries():
    names = tuple(f"s{i}" for i in range(6))
    observed = FunctionalDatabase(names, {"w": {(s,): 10 for s in names}})
    return UnreliableFunctionalDatabase(
        observed, {("w", (s,)): {10: "9/10", 11: "1/10"} for s in names}
    )


class TestBudget:
    def test_world_walk_is_preflighted_by_its_support(self):
        query = MetafiniteQuery(func("w", "x"), ["x"])
        with pytest.raises(CostRefused, match="64 worlds"):
            with apply(Budget(max_atoms=2, max_worlds=4)):
                metafinite_reliability(_six_entries(), query)

    @pytest.mark.parametrize(
        "engine", [metafinite_reliability, metafinite_reliability_qf]
    )
    def test_exact_walks_honour_the_deadline(self, engine):
        now = [0.0]

        def clock():  # every read is ten seconds later
            now[0] += 10.0
            return now[0]

        query = MetafiniteQuery(func("w", "x"), ["x"])
        with pytest.raises(BudgetExceeded):
            with apply(Budget(deadline=1.0, clock=clock)):
                engine(_six_entries(), query)


class TestWorldWalk:
    """The Theorem 6.2(ii) walk is the shared Gray-code enumeration."""

    @staticmethod
    def _mixed_radix():
        # w(a) has three values, w(b) two, w(c) four; t(a) is certain at
        # 9 although 2 was observed, so every world carries the override.
        names = ("a", "b", "c")
        observed = FunctionalDatabase(
            names,
            {
                "w": {("a",): 1, ("b",): 2, ("c",): 0},
                "t": {("a",): 2, ("b",): 2, ("c",): 2},
            },
        )
        distributions = {
            ("w", ("a",)): {0: "1/6", 1: "1/2", 2: "1/3"},
            ("w", ("b",)): {2: "3/5", 7: "2/5"},
            ("w", ("c",)): {0: "1/10", 1: "2/10", 2: "3/10", 3: "4/10"},
            ("t", ("a",)): {9: 1},
        }
        return observed, distributions

    def test_counts_every_world_of_the_support(self):
        observed, distributions = self._mixed_radix()
        udb = UnreliableFunctionalDatabase(observed, distributions)
        query = MetafiniteQuery(aggregate("sum", ["x"], func("w", "x")))
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            metafinite_expected_error(udb, query)
        counters = recorder.summary()["counters"]
        assert udb.support_size() == 24
        assert counters["exact.worlds_enumerated"] == udb.support_size()

    @pytest.mark.parametrize(
        "term, free",
        [
            (aggregate("sum", ["x"], func("w", "x")), []),
            (aggregate("max", ["x"], apply_op("add", func("w", "x"), func("t", "x"))), []),
            (apply_op("geq", func("w", "x"), func("t", "x")), ["x"]),
            (apply_op("sub", func("t", "x"), func("w", "x")), ["x"]),
        ],
    )
    def test_mixed_radix_walk_equals_a_product_sum(self, term, free):
        observed, distributions = self._mixed_radix()
        udb = UnreliableFunctionalDatabase(observed, distributions)
        query = MetafiniteQuery(term, free)
        expected = Fraction(0)
        baseline = query.answers(observed)
        entries = list(distributions)
        supports = [
            [(value, Fraction(p)) for value, p in distributions[e].items()]
            for e in entries
        ]
        for combo in product(*supports):
            weight = Fraction(1)
            updates = {}
            for entry, (value, p) in zip(entries, combo):
                weight *= p
                updates[entry] = value
            answers = query.answers(observed.with_entries(updates))
            expected += weight * sum(
                1 for args, value in baseline.items() if answers[args] != value
            )
        assert metafinite_expected_error(udb, query) == expected


class TestMonteCarlo:
    def test_tracks_exact(self, udb):
        rng = make_rng(8)
        query = MetafiniteQuery(aggregate("sum", ["x"], func("w", "x")))
        exact = float(metafinite_reliability(udb, query))
        estimate = estimate_metafinite_reliability(
            udb, query, rng, samples=8000
        )
        assert abs(estimate - exact) < 0.02

    def test_unary_query(self, udb):
        rng = make_rng(9)
        query = MetafiniteQuery(func("w", "x"), ["x"])
        exact = float(metafinite_reliability(udb, query))
        estimate = estimate_metafinite_reliability(
            udb, query, rng, samples=8000
        )
        assert abs(estimate - exact) < 0.02

    def test_default_budget(self, udb):
        rng = make_rng(10)
        query = MetafiniteQuery(num(1))
        assert (
            estimate_metafinite_reliability(
                udb, query, rng, epsilon=0.2, delta=0.2
            )
            == 1.0
        )
