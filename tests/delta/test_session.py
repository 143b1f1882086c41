"""DeltaSession: incremental answers bit-identical to cold recomputes.

Every test compares the session's maintained :class:`Fraction` against
``truth_probability`` / ``reliability`` evaluated cold on the session's
current database — equality is exact (``==`` on Fractions), never
approximate.
"""

import random
from fractions import Fraction

import pytest

from repro import obs
from repro.delta import DeltaSession
from repro.kernels import cache_persist
from repro.kernels.cache import clear_caches, compilation_cache
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.exact import reliability, truth_probability
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import Budget, apply
from repro.util.errors import QueryError

from tests.delta.streams import QUERY_SHAPES, apply_op, random_db, random_stream

SELF_JOIN = "exists x y. E(x, y) & E(y, x)"


def _square_db():
    """A 4-node graph with two uncertain 2-cycles and a certain edge."""
    builder = StructureBuilder(range(4))
    builder.relation("E", 2)
    for pair in [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3)]:
        builder.add("E", pair)
    mu = {
        Atom("E", pair): Fraction(1, 8)
        for pair in [(0, 1), (1, 0), (1, 2), (2, 1)]
    }
    return UnreliableDatabase(builder.build(), mu)


def _assert_current(session, query):
    assert session.probability() == truth_probability(session.db, query)
    assert session.reliability() == reliability(session.db, query)


class TestAnswers:
    def test_initial_probability_matches_cold(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        _assert_current(session, SELF_JOIN)

    def test_weight_only_set_mu(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        session.set_mu(Atom("E", (0, 1)), Fraction(1, 3))
        _assert_current(session, SELF_JOIN)
        session.set_mu(Atom("E", (1, 0)), Fraction(7, 8))
        _assert_current(session, SELF_JOIN)

    def test_structural_set_mu_to_zero_and_back(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        atom = Atom("E", (0, 1))
        session.set_mu(atom, 0)  # becomes deterministic-present
        _assert_current(session, SELF_JOIN)
        session.set_mu(atom, Fraction(1, 4))  # uncertain again
        _assert_current(session, SELF_JOIN)

    def test_structural_set_mu_to_one(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        session.set_mu(Atom("E", (1, 2)), 1)  # certainly flipped
        _assert_current(session, SELF_JOIN)

    def test_insert_and_delete_uncertain_tuple(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        atom = Atom("E", (0, 1))
        session.delete(atom)  # nu flips from 1-mu to mu
        _assert_current(session, SELF_JOIN)
        session.insert(atom)
        _assert_current(session, SELF_JOIN)

    def test_insert_deterministic_tuple_is_structural(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        session.insert(Atom("E", (3, 2)))  # mu=0: a new certain 2-cycle
        _assert_current(session, SELF_JOIN)
        assert session.probability() == 1
        session.delete(Atom("E", (3, 2)))
        _assert_current(session, SELF_JOIN)

    def test_noop_updates_change_nothing(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        before = session.probability()
        session.set_mu(Atom("E", (0, 1)), Fraction(1, 8))  # same value
        session.insert(Atom("E", (0, 1)))  # already present
        assert session.probability() == before

    def test_update_of_unrelated_relation_atom(self):
        db = _square_db()
        session = DeltaSession(db, SELF_JOIN)
        # An atom whose relation appears in the query but whose tuple
        # cannot complete any clause.
        session.set_mu(Atom("E", (3, 3)), Fraction(1, 2))
        _assert_current(session, SELF_JOIN)

    def test_recompute_is_the_same_answer(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        session.set_mu(Atom("E", (0, 1)), Fraction(2, 5))
        incremental = session.probability()
        assert session.recompute() == incremental

    def test_universal_query_via_negation(self):
        query = "forall x y. E(x, y)"
        session = DeltaSession(_square_db(), query)
        _assert_current(session, query)
        session.set_mu(Atom("E", (0, 1)), Fraction(1, 2))
        _assert_current(session, query)
        session.delete(Atom("E", (2, 3)))
        _assert_current(session, query)

    def test_wrong_probability_tracks_observed_answer(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        # Observed structure satisfies the query: wrong = 1 - Pr.
        assert (
            session.wrong_probability() == 1 - session.probability()
        )
        assert session.reliability() == session.probability()


class TestValidation:
    def test_non_boolean_query_refused(self):
        with pytest.raises(QueryError):
            DeltaSession(_square_db(), "E(x, y)")

    def test_diagram_size_is_positive(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        assert session.diagram_size > 0


class TestCounters:
    def test_weight_only_path_never_recompiles(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            session.set_mu(Atom("E", (0, 1)), Fraction(1, 3))
            session.delete(Atom("E", (1, 2)))
        counters = recorder.summary()["counters"]
        assert counters["delta.updates"] == 2
        assert counters["delta.reweights"] == 2
        assert counters["delta.nodes_reevaluated"] > 0
        assert "delta.recompiles" not in counters
        assert "delta.regrounds" not in counters

    def test_structural_path_regrounds_and_recompiles(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            session.set_mu(Atom("E", (0, 1)), 0)
        counters = recorder.summary()["counters"]
        assert counters["delta.regrounds"] >= 1
        assert counters["delta.recompiles"] == 1

    def test_reweight_touches_fewer_nodes_than_the_diagram(self):
        session = DeltaSession(_square_db(), SELF_JOIN)
        # The deepest variable in the order re-evaluates the most
        # levels; any atom's bill is bounded by the diagram size.
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            session.set_mu(Atom("E", (2, 1)), Fraction(1, 3))
        touched = recorder.summary()["counters"]["delta.nodes_reevaluated"]
        assert 0 < touched <= session.diagram_size


#: Counters and budget ledger of seed 3's 40-step stream per query
#: shape: (nodes_reevaluated, regrounds, recompiles, worlds,
#: ground_clauses).  ``regrounds`` and ``ground_clauses`` are the
#: grounding's and do not depend on how the diagram is maintained.
#: The others count the patched diagram: ``recompiles`` is the number
#: of structural updates that patched it, ``nodes_reevaluated`` adds
#: the new nodes a patch evaluated to the weight path's dirty nodes,
#: and ``worlds`` charges only the nodes an update or build evaluates.
PINNED = {
    "existential": (69, 12, 7, 89, 21),
    "universal": (113, 10, 7, 127, 19),
    "self-join": (218, 17, 4, 258, 26),
}


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_counters_and_ledger_are_pinned(shape):
    rng = random.Random(3)
    db = random_db(rng)
    ops = random_stream(rng, db, 40)
    recorder = obs.StatsRecorder()
    budget = Budget(max_worlds=10**9, max_ground_clauses=10**9)
    with obs.use(recorder), apply(budget):
        session = DeltaSession(db, QUERY_SHAPES[shape])
        for op in ops:
            apply_op(session, op)
    counters = recorder.summary()["counters"]
    assert (
        counters.get("delta.nodes_reevaluated", 0),
        counters.get("delta.regrounds", 0),
        counters.get("delta.recompiles", 0),
        budget.worlds,
        budget.ground_clauses,
    ) == PINNED[shape]
    assert session.probability() == truth_probability(
        session.db, QUERY_SHAPES[shape]
    )


class TestVariableOrder:
    def test_star_session_compiles_in_clause_order(self):
        # The 8-element star of the propositional clause-order test: its
        # lineage interleaves one component per y.  Compiled in clause
        # order the session's diagram is linear in the 72 variables;
        # the sorted order, which keeps each relation's atoms together,
        # reached 7,678 nodes.
        size = 8
        builder = StructureBuilder(range(size))
        builder.relation("E", 2).relation("S", 1)
        mu = {Atom("S", (j,)): Fraction(1 + j % 5, 8) for j in range(size)}
        mu.update(
            (Atom("E", (i, j)), Fraction(1 + (3 * i + j) % 6, 8))
            for i in range(size)
            for j in range(size)
        )
        query = "exists x y. E(x, y) & S(y)"
        session = DeltaSession(UnreliableDatabase(builder.build(), mu), query)
        variables = size * size + size
        frozen = Atom("S", (3,))
        for probability in (None, 0, mu[frozen]):
            if probability is not None:
                session.set_mu(frozen, probability)
            assert session.diagram_size <= 2 * variables
            assert session.probability() == truth_probability(session.db, query)


#: Freezes, thaws, inserts and deletes on the square graph, each of
#: which patches the diagram.
STRUCTURAL_OPS = [
    ("set_mu", Atom("E", (0, 1)), 0),
    ("insert", Atom("E", (3, 2))),
    ("set_mu", Atom("E", (0, 1)), Fraction(1, 4)),
    ("delete", Atom("E", (3, 2))),
    ("set_mu", Atom("E", (1, 2)), 1),
    ("set_mu", Atom("E", (3, 3)), Fraction(1, 5)),
    ("set_mu", Atom("E", (3, 3)), 0),
]


def _entry(session, db):
    """The compilation-cache entry a session on ``db`` was built from."""
    key = ("delta_bdd", db.fingerprint(), session._base)
    assert key in compilation_cache

    def missing():
        raise AssertionError("no cached diagram")

    return compilation_cache.get_or_create(key, missing)


class TestCachedDiagram:
    def test_entry_holds_live_nodes_only(self):
        db = _square_db()
        entry = _entry(DeltaSession(db, SELF_JOIN), db)
        assert not entry._apply_cache
        assert len(entry) == sum(map(len, entry.reachable_by_level(*entry.tree)))

    def test_structural_updates_leave_the_entry_alone(self, tmp_path):
        cache_persist.configure(str(tmp_path / "c"))
        db = _square_db()
        session = DeltaSession(db, SELF_JOIN)
        entry = _entry(session, db)
        snapshot = (entry.order, list(entry.nodes), list(entry.tree))
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            for op in STRUCTURAL_OPS:
                apply_op(session, op)
                _assert_current(session, SELF_JOIN)
        assert recorder.summary()["counters"]["delta.recompiles"] == len(
            STRUCTURAL_OPS
        )
        assert _entry(session, db) is entry
        assert (entry.order, list(entry.nodes), list(entry.tree)) == snapshot
        assert not entry._apply_cache
        # Per-update diagrams enter neither tier.
        key = ("delta_bdd", session.db.fingerprint(), session._base)
        assert key not in compilation_cache
        stored = [p.name for p in (tmp_path / "c").iterdir()]
        assert sum(name.startswith("delta_bdd-") for name in stored) == 1

    def test_sessions_from_one_entry_are_independent(self):
        db = _square_db()
        first = DeltaSession(db, SELF_JOIN)
        second = DeltaSession(db, SELF_JOIN)
        assert _entry(first, db) is _entry(second, db)
        before, size = second.probability(), second.diagram_size
        for op in STRUCTURAL_OPS:
            apply_op(first, op)
        assert second.db is db
        assert second.probability() == before
        assert second.diagram_size == size
        for op in STRUCTURAL_OPS:
            apply_op(second, op)
            _assert_current(second, SELF_JOIN)
        assert second.probability() == first.probability()


class TestPersistRoundTrip:
    def test_warm_session_from_disk_is_bit_identical(self, tmp_path):
        cache_persist.configure(str(tmp_path / "c"))
        db = _square_db()
        cold = DeltaSession(db, SELF_JOIN)
        cold_value = cold.probability()
        cold_size = cold.diagram_size
        # New "process": empty memory tier, same disk tier.
        clear_caches()
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            warm = DeltaSession(db, SELF_JOIN)
        counters = recorder.summary()["counters"]
        assert counters.get("kernels.cache.persist.hits", 0) >= 1
        assert warm.probability() == cold_value
        assert warm.diagram_size == cold_size  # the same compiled plan
        # And the warm session updates correctly from the loaded plan.
        warm.set_mu(Atom("E", (0, 1)), Fraction(1, 3))
        _assert_current(warm, SELF_JOIN)
