"""Tests for metafinite reliability (Theorem 6.2)."""

from fractions import Fraction

import pytest

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
