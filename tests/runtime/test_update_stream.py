"""run_update_stream: budgeted, preflighted delta evaluation."""

from fractions import Fraction

import pytest

from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.exact import reliability, truth_probability
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import Budget
from repro.runtime.executor import run_update_stream
from repro.runtime.preflight import delta_update_cost, preflight_delta
from repro.util.errors import CostRefused, QueryError

QUERY = "exists x y. E(x, y) & E(y, x)"


def _db():
    builder = StructureBuilder(range(3))
    builder.relation("E", 2)
    for pair in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        builder.add("E", pair)
    mu = {
        Atom("E", pair): Fraction(1, 8)
        for pair in [(0, 1), (1, 0), (1, 2), (2, 1)]
    }
    return UnreliableDatabase(builder.build(), mu)


class TestRunUpdateStream:
    def test_one_answer_per_update_each_exact(self):
        updates = [
            ("set_mu", Atom("E", (0, 1)), Fraction(1, 3)),
            ("delete", Atom("E", (1, 2))),
            ("insert", Atom("E", (1, 2))),
        ]
        session, answers = run_update_stream(_db(), QUERY, updates)
        assert len(answers) == len(updates)
        assert all(isinstance(a, Fraction) for a in answers)
        # The final answer is the cold answer on the final database.
        assert answers[-1] == truth_probability(session.db, QUERY)

    def test_reliability_quantity(self):
        updates = [("set_mu", Atom("E", (0, 1)), Fraction(1, 2))]
        session, answers = run_update_stream(
            _db(), QUERY, updates, quantity="reliability"
        )
        assert answers[0] == reliability(session.db, QUERY)

    def test_unknown_quantity_refused(self):
        with pytest.raises(QueryError):
            run_update_stream(_db(), QUERY, [], quantity="entropy")

    def test_unknown_op_refused(self):
        with pytest.raises(QueryError):
            run_update_stream(_db(), QUERY, [("upsert", Atom("E", (0, 1)))])

    def test_malformed_op_refused_before_pricing(self):
        # The stream's one bad op is a QueryError even under a budget
        # the well-formed part would exceed: it is never priced as work.
        size = run_update_stream(_db(), QUERY, [])[0].diagram_size
        updates = [
            ("set_mu", Atom("E", (0, 1)), Fraction(i, 8)) for i in range(1, 8)
        ] + [("upsert", Atom("E", (0, 1)))]
        with pytest.raises(QueryError):
            run_update_stream(
                _db(), QUERY, updates, budget=Budget(max_worlds=size * 3)
            )

    @pytest.mark.parametrize(
        "bad",
        [
            ("upsert", Atom("E", (0, 1))),
            ("set_mu", Atom("E", (0, 1))),
            ("insert", Atom("E", (0, 2)), Fraction(1, 2)),
            (),
        ],
        ids=["unknown", "short", "long", "empty"],
    )
    def test_malformed_stream_builds_no_session(self, monkeypatch, bad):
        from repro.delta import DeltaSession

        built = []
        init = DeltaSession.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DeltaSession, "__init__", counting)
        updates = [
            ("set_mu", Atom("E", (0, 1)), Fraction(1, 3)),
            ("delete", Atom("E", (1, 2))),
            ("insert", Atom("E", (1, 2))),
            bad,
        ]
        with pytest.raises(QueryError):
            run_update_stream(_db(), QUERY, updates)
        assert built == []

    def test_tight_budget_refuses_up_front(self):
        # Room to compile the diagram once, none for the stream: the
        # preflight refuses before any update is applied.
        size = run_update_stream(_db(), QUERY, [])[0].diagram_size
        updates = [
            ("set_mu", Atom("E", (0, 1)), Fraction(i, 8)) for i in range(1, 8)
        ]
        with pytest.raises(CostRefused):
            run_update_stream(
                _db(), QUERY, updates, budget=Budget(max_worlds=size * 3)
            )

    def test_ample_budget_admits(self):
        updates = [("set_mu", Atom("E", (0, 1)), Fraction(1, 3))]
        _session, answers = run_update_stream(
            _db(), QUERY, updates, budget=Budget(max_worlds=10**6)
        )
        assert len(answers) == 1


class TestPreflight:
    def test_cost_is_nodes_times_updates(self):
        assert delta_update_cost(100, 7) == 700

    def test_within_limit_returns_estimate(self):
        assert preflight_delta(10, 5, Budget(max_worlds=50)) == 50

    def test_over_limit_raises_with_numbers(self):
        with pytest.raises(CostRefused) as excinfo:
            preflight_delta(10, 6, Budget(max_worlds=50))
        assert excinfo.value.estimate == 60
        assert excinfo.value.limit == 50

    def test_ambient_budget_caps_unbudgeted_streams(self):
        # Without an explicit budget the ambient default's world limit
        # applies: even delta streams cannot grow without bound.
        with pytest.raises(CostRefused):
            preflight_delta(10**6, 10**6)
