"""Tests for probabilistic answer relations."""

from fractions import Fraction

import pytest

from repro.logic.datalog import reachability_query
from repro.logic.evaluator import FOQuery
from repro.reliability.answers import (
    answer_probabilities,
    estimate_answer_probabilities,
    reliability_from_answers,
)
from repro.reliability.exact import reliability, truth_probability
from repro.util.errors import QueryError
from repro.util.rng import make_rng


class TestAnswerProbabilities:
    def test_covers_all_candidate_tuples(self, triangle_db):
        query = FOQuery("E(x, y)", ("x", "y"))
        table = answer_probabilities(triangle_db, query)
        assert len(table) == 9

    def test_values_match_per_tuple_truth_probability(self, triangle_db):
        query = FOQuery("E(x, y)", ("x", "y"))
        table = answer_probabilities(triangle_db, query)
        assert table[("a", "b")] == Fraction(3, 4)
        assert table[("a", "c")] == Fraction(1, 10)
        assert table[("b", "c")] == 1
        assert table[("c", "b")] == 0

    def test_boolean_query_single_row(self, triangle_db):
        query = FOQuery("exists x. S(x) & ~E(x, x)")
        table = answer_probabilities(triangle_db, query)
        assert set(table) == {()}
        assert table[()] == truth_probability(triangle_db, query)

    def test_works_for_datalog(self, triangle_db):
        table = answer_probabilities(triangle_db, reachability_query())
        assert table[("a", "c")] > Fraction(1, 2)
        assert table[("c", "a")] < Fraction(1, 2)

    @pytest.mark.parametrize("text, method, evaluations", [
        # A conjunctive query under auto: the lifted route, no world.
        ("exists y. E(x, y) & S(y)", "auto", 0),
        # Nine tuples, each over the 2 ** 4 worlds of the uncertain
        # E and S atoms.
        ("E(x, y) | S(x)", "worlds", 9 * 2**4),
    ])
    def test_observed_structure_not_evaluated(
        self, triangle_db, monkeypatch, text, method, evaluations
    ):
        # The table discards each tuple's observed value, so no route
        # evaluates the query on the observed structure for it.
        calls = []
        evaluate = FOQuery.evaluate

        def counting(self, structure, args=()):
            calls.append(structure)
            return evaluate(self, structure, args)

        monkeypatch.setattr(FOQuery, "evaluate", counting)
        query = FOQuery(text)
        table = answer_probabilities(triangle_db, query, method)
        assert len(calls) == evaluations
        monkeypatch.setattr(FOQuery, "evaluate", evaluate)
        assert table == answer_probabilities(triangle_db, query, "worlds")

    def test_reliability_recoverable(self, triangle_db):
        query = FOQuery("exists y. E(x, y) & S(y)", ("x",))
        table = answer_probabilities(triangle_db, query)
        assert reliability_from_answers(triangle_db, query, table) == (
            reliability(triangle_db, query)
        )


class TestEstimatedAnswerProbabilities:
    def test_tracks_exact_table(self, triangle_db):
        query = FOQuery("E(x, y)", ("x", "y"))
        exact = answer_probabilities(triangle_db, query)
        estimated = estimate_answer_probabilities(
            triangle_db, query, make_rng(0), samples=8000
        )
        for args, p in exact.items():
            assert abs(estimated[args] - float(p)) < 0.02, args

    def test_reliability_from_estimated_table(self, triangle_db):
        query = FOQuery("E(x, y)", ("x", "y"))
        table = estimate_answer_probabilities(
            triangle_db, query, make_rng(1), samples=8000
        )
        approx = reliability_from_answers(triangle_db, query, table)
        assert abs(approx - float(reliability(triangle_db, query))) < 0.02

    def test_empty_universe_rejected(self):
        from repro.relational.schema import Vocabulary
        from repro.relational.structure import Structure
        from repro.reliability.unreliable import UnreliableDatabase

        empty = UnreliableDatabase(Structure(Vocabulary([("S", 1)]), []))
        with pytest.raises(QueryError):
            estimate_answer_probabilities(
                empty, FOQuery("S(x)"), make_rng(2), samples=5
            )


class TestQuestionableAnswers:
    def test_ranked_by_doubt(self, triangle_db):
        from repro.reliability.answers import most_questionable_answers

        query = FOQuery("E(x, y)", ("x", "y"))
        ranked = most_questionable_answers(triangle_db, query)
        doubts = [d for _a, d, _in in ranked]
        assert doubts == sorted(doubts, reverse=True)
        # E(a, b) is an observed answer wrong with probability 1/4: top.
        assert ranked[0][0] == ("a", "b")
        assert ranked[0][1] == Fraction(1, 4)
        assert ranked[0][2] is True

    def test_certain_rows_excluded(self, certain_db):
        from repro.reliability.answers import most_questionable_answers

        query = FOQuery("E(x, y)", ("x", "y"))
        assert most_questionable_answers(certain_db, query) == []

    def test_limit(self, triangle_db):
        from repro.reliability.answers import most_questionable_answers

        query = FOQuery("E(x, y)", ("x", "y"))
        assert len(most_questionable_answers(triangle_db, query, limit=2)) == 2

    def test_reads_the_answer_relation_once(self, triangle_db, monkeypatch):
        # The observed answers come with the lineage table; the ranking
        # must not evaluate the query's answer relation a second time.
        from repro.reliability.answers import most_questionable_answers

        calls = []
        answers = FOQuery.answers

        def counting(self, structure):
            calls.append(structure)
            return answers(self, structure)

        monkeypatch.setattr(FOQuery, "answers", counting)
        query = FOQuery("E(x, y) | S(x)", ("x", "y"))
        ranked = most_questionable_answers(triangle_db, query)
        assert len(calls) == 1
        assert ranked[0] == (("a", "c"), Fraction(2, 5), False)
