"""The one-pass lineage table of k-ary queries (``ground_answers``).

Every consumer of the table must answer exactly what the per-tuple
decomposition of Proposition 3.1 / Corollary 5.5 answers: the same DNF
per answer tuple, the same Karp–Luby draws in the same order, the same
exact ``Fraction`` and the same budget ledgers.  The per-tuple
references below are written out from the definitions, independent of
the table.

``LINEAGE_DIFF_SEEDS`` (environment) replays an explicit seed window;
the CI ``lineage-differential`` lane uses it to sweep a second window.
"""

import os
import random
from fractions import Fraction
from itertools import product

import pytest

from repro import obs
from repro.kernels.cache import clear_caches, compilation_cache
from repro.logic.classify import is_existential, is_quantifier_free
from repro.logic.evaluator import FOQuery
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.answers import answer_probabilities
from repro.reliability.approx import existential_probability, reliability_additive
from repro.reliability.exact import (
    _instantiated,
    expected_error,
    reliability,
    truth_probability,
    wrong_probability,
)
from repro.reliability.grounding import (
    ground_answers,
    ground_existential_to_dnf,
    wrong_target,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import Budget, apply
from repro.util.errors import BudgetExceeded


def _seeds():
    raw = os.environ.get("LINEAGE_DIFF_SEEDS", "")
    if raw.strip():
        return [int(token) for token in raw.replace(",", " ").split()]
    return list(range(40))


SEEDS = _seeds()

#: (formula, free order) pairs: quantifier-free, existential (with a
#: bound/free name clash), equality literals, universal, and a reversed
#: free order.
QUERIES = [
    ("S(x, y)", None),
    ("S(x, y)", ["y", "x"]),
    ("~S(x, y) | T(x)", None),
    ("S(x, y) & x = y", None),
    ("exists y. S(x, y) & T(y)", None),
    ("exists x. S(x, y) & exists y. T(y)", None),
    ("T(x) & exists x. S(x, x)", None),
    ("exists z. S(x, z) & S(z, y) & ~(x = z)", None),
    ("forall y. S(x, y) | ~T(y)", None),
    ("forall z. ~S(x, z) | T(z)", None),
    # Boolean queries: the lineage table's one tuple is ().
    ("exists x. S(x, x) | T(x)", None),
    ("exists x y. S(x, y) & T(y)", None),
    ("forall x. S(x, x) | ~T(x)", None),
]

#: Error values, deterministic ones included: mu = 0 folds an atom to
#: its observed value, mu = 1 to its flip.
ERRORS = [
    Fraction(0),
    Fraction(1),
    Fraction(1, 10),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(9, 10),
]


def random_db(seed, max_uncertain=12):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    builder = StructureBuilder(list(range(n)))
    builder.relation("S", 2).relation("T", 1)
    atoms = [Atom("S", (x, y)) for x in range(n) for y in range(n)]
    atoms += [Atom("T", (x,)) for x in range(n)]
    mu = {}
    uncertain = 0
    for atom in atoms:
        if rng.random() < 0.45:
            builder.add(atom.relation, atom.args)
        if rng.random() < 0.45:
            error = rng.choice(ERRORS)
            if 0 < error < 1:
                if uncertain == max_uncertain:
                    continue
                uncertain += 1
            mu[atom] = error
    return UnreliableDatabase(builder.build(), mu)


def queries():
    return [FOQuery(formula, free) for formula, free in QUERIES]


def literals(dnf):
    return [
        [(literal.variable, literal.positive) for literal in clause]
        for clause in dnf.clauses
    ]


def per_tuple_additive(db, query, epsilon, delta, rng, adaptive):
    """Corollary 5.5's loop: one Theorem 5.4 FPTRAS per answer tuple."""
    cells = db.universe_size**query.arity
    total_wrong, total_samples = 0.0, 0
    for args in product(db.structure.universe, repeat=query.arity):
        target = wrong_target(query.instantiated(args))
        observed = FOQuery(target).evaluate(db.structure, ())
        estimate = existential_probability(
            db, target, epsilon, delta / cells, rng, adaptive=adaptive
        )
        total_wrong += 1.0 - estimate.value if observed else estimate.value
        total_samples += estimate.samples
    return 1.0 - total_wrong / cells, total_samples


@pytest.mark.parametrize("seed", SEEDS)
def test_lineage_matches_per_tuple_grounding(seed):
    db = random_db(seed)
    for query in queries():
        clear_caches()
        lineage = ground_answers(db, query)
        for args in product(db.structure.universe, repeat=query.arity):
            target = wrong_target(query.instantiated(args))
            expected = ground_existential_to_dnf(db, target).dnf
            observed = FOQuery(target).evaluate(db.structure, ())
            assert lineage.observed(args) == observed, (query, args)
            if expected.is_true() or expected.is_false():
                assert args not in lineage.dnfs, (query, args)
                assert (args in lineage.certain) == expected.is_true()
            else:
                assert args not in lineage.certain
                assert literals(lineage.dnfs[args]) == literals(expected), (
                    query,
                    args,
                )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("adaptive", [False, True])
def test_additive_bit_identical_to_per_tuple(seed, adaptive):
    db = random_db(seed)
    for query in queries():
        clear_caches()
        expected = per_tuple_additive(
            db, query, 0.2, 0.2, random.Random(seed), adaptive
        )
        clear_caches()
        estimate = reliability_additive(
            db, query, 0.2, 0.2, random.Random(seed), adaptive=adaptive
        )
        assert (estimate.value, estimate.samples) == expected, query


@pytest.mark.parametrize("seed", SEEDS[:20])
def test_exact_methods_match_world_enumeration(seed):
    """Theorem 4.2's enumeration is the oracle for every method that
    reads the lineage table."""
    db = random_db(seed, max_uncertain=12)
    assert len(db.uncertain_atoms()) <= 12
    for query in queries():
        oracle = reliability(db, query, method="worlds")
        methods = ["auto"]
        if is_quantifier_free(query.formula):
            methods.append("qf")
        if is_existential(query.formula):
            methods.append("dnf")
        for method in methods:
            clear_caches()
            assert reliability(db, query, method=method) == oracle, (
                query,
                method,
            )


@pytest.mark.parametrize("seed", SEEDS[:20])
def test_answer_probabilities_match_per_tuple(seed):
    db = random_db(seed)
    for query in queries():
        table = answer_probabilities(db, query)
        for args, probability in table.items():
            expected = truth_probability(db, _instantiated(query, args))
            assert type(probability) is Fraction
            assert probability == expected, (query, args)


def _ledgers(run):
    clear_caches()
    budget = Budget(max_samples=10**8, max_ground_clauses=10**8)
    recorder = obs.StatsRecorder()
    previous = obs.set_recorder(recorder)
    try:
        with apply(budget):
            value = run()
    finally:
        obs.set_recorder(previous)
    counters = recorder.summary()["counters"]
    return (
        value,
        budget.samples,
        budget.ground_clauses,
        counters.get("grounding.clauses_raw"),
        counters.get("grounding.clauses_kept"),
    )


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_budgeted_ledgers_unchanged(seed):
    db = random_db(seed)
    for query in queries():
        lineage = _ledgers(
            lambda: reliability_additive(
                db, query, 0.2, 0.2, random.Random(seed)
            ).value
        )
        reference = _ledgers(
            lambda: per_tuple_additive(
                db, query, 0.2, 0.2, random.Random(seed), False
            )[0]
        )
        assert lineage == reference, query


def per_tuple_expected_error(db, query):
    """Definition 2.2's sum, each tuple through the dispatch on its own."""
    return sum(
        (
            wrong_probability(db, query, args)
            for args in product(db.structure.universe, repeat=query.arity)
        ),
        Fraction(0),
    )


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_exact_ledgers_unchanged(seed):
    db = random_db(seed)
    for query in queries():
        assert _ledgers(lambda: expected_error(db, query)) == _ledgers(
            lambda: per_tuple_expected_error(db, query)
        ), query


def _capped(run, cap):
    """The clause ledger of ``run`` under a clause cap, and how it ended."""
    clear_caches()
    budget = Budget(max_ground_clauses=cap)
    with apply(budget):
        try:
            run()
        except BudgetExceeded:
            return budget.ground_clauses, "exceeded"
    return budget.ground_clauses, "done"


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_capped_runs_stop_where_per_tuple_runs_stop(seed):
    """A cap below the pass's clauses stops the lineage pass on the
    clause a per-tuple run stops on."""
    db = random_db(seed)
    for formula in ("exists z. S(x, z) & S(z, y) & ~(x = z)",
                    "forall y. S(x, y) | ~T(y)"):
        query = FOQuery(formula)
        cap = db.universe_size**3 // 2
        assert _capped(lambda: expected_error(db, query), cap) == _capped(
            lambda: per_tuple_expected_error(db, query), cap
        )
        assert _capped(
            lambda: reliability_additive(db, query, 0.2, 0.2, random.Random(0)),
            cap,
        ) == _capped(
            lambda: per_tuple_additive(
                db, query, 0.2, 0.2, random.Random(0), False
            ),
            cap,
        )


def test_safe_conjunctive_query_stays_lifted_under_a_clause_cap():
    """Under ``auto`` each tuple of a safe k-ary CQ is answered by the
    lifted engine, which grounds nothing: a cap that admits one tuple's
    grounding but not all of them must not stop the run."""
    rng = random.Random(3)
    n = 8
    builder = StructureBuilder(list(range(n)))
    builder.relation("S", 2).relation("T", 1)
    for x in range(n):
        for y in range(n):
            if rng.random() < 0.4:
                builder.add("S", (x, y))
        if rng.random() < 0.5:
            builder.add("T", (x,))
    mu = {Atom("S", (x, (3 * x) % n)): Fraction(1, 4) for x in range(n)}
    mu.update({Atom("T", (y,)): Fraction(1, 3) for y in range(3)})
    db = UnreliableDatabase(builder.build(), mu)
    query = FOQuery("exists y. S(x, y) & T(y)")
    oracle = reliability(db, query, method="worlds")
    per_tuple_clauses = n  # one template, one bound variable
    clear_caches()
    budget = Budget(max_ground_clauses=per_tuple_clauses + 2)
    assert budget.max_ground_clauses < n * per_tuple_clauses
    recorder = obs.StatsRecorder()
    previous = obs.set_recorder(recorder)
    try:
        with apply(budget):
            value = reliability(db, query)
    finally:
        obs.set_recorder(previous)
    assert value == oracle
    assert budget.ground_clauses == 0
    counters = recorder.summary()["counters"]
    assert counters["exact.dispatch.lifted"] == n
    assert "grounding.clauses_raw" not in counters


def test_deadline_during_pass_caches_nothing():
    db = random_db(5)  # a 4-element universe: 64 raw clauses
    query = FOQuery("exists z. S(x, z) & S(z, y)")
    ticks = iter(range(10**6))
    # Each checkpoint reads the clock once: the deadline passes mid-pass.
    budget = Budget(deadline=20.0, clock=lambda: float(next(ticks)))
    with pytest.raises(BudgetExceeded):
        with apply(budget):
            reliability_additive(db, query, 0.2, 0.2, random.Random(0))
    raw = db.universe_size**3
    assert 0 < budget.ground_clauses < raw
    key = ("lineage", db.fingerprint(), query.formula, query.free_order)
    assert key not in compilation_cache
    assert len(compilation_cache) == 0
    # The next, unbudgeted pass grounds from scratch and is cached.
    reliability_additive(db, query, 0.2, 0.2, random.Random(0))
    assert key in compilation_cache


def test_only_uncertain_tuples_are_visited():
    """14 elements, 30 uncertain ``S`` atoms: ``S(x, y)`` has 196 answer
    tuples and 166 of them have constant lineage."""
    rng = random.Random(7)
    universe = list(range(14))
    builder = StructureBuilder(universe)
    builder.relation("S", 2)
    cells = [(x, y) for x in universe for y in universe]
    for cell in rng.sample(cells, 60):
        builder.add("S", cell)
    mu = {Atom("S", cell): Fraction(1, 5) for cell in rng.sample(cells, 30)}
    db = UnreliableDatabase(builder.build(), mu)
    query = FOQuery("S(x, y)")
    for run in (
        lambda: reliability_additive(db, query, 0.1, 0.1, random.Random(1)),
        lambda: reliability(db, query),
        lambda: answer_probabilities(db, query),
    ):
        clear_caches()
        recorder = obs.StatsRecorder()
        previous = obs.set_recorder(recorder)
        try:
            run()
        finally:
            obs.set_recorder(previous)
        counters = recorder.summary()["counters"]
        assert counters["reliability.tuples_visited"] == 30
        assert counters["grounding.clauses_raw"] == 196


#: k-ary quantifier-free and universal queries with the exact methods
#: each takes: every one reads the lineage table.
LINEAGE_ROUTED = [
    ("S(x, y)", ("auto", "qf", "dnf")),
    ("~S(x, y) | T(x)", ("auto", "qf", "dnf")),
    ("forall y. S(x, y) | ~T(y)", ("auto", "dnf")),
    ("forall z. ~S(x, z) | T(z)", ("auto", "dnf")),
]


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_exact_answers_read_cells_without_instantiating(seed, monkeypatch):
    """The exact quantities take each tuple's target and observed value
    from the lineage table: no tuple is instantiated, and the observed
    structure is evaluated once, by the table's answer relation."""
    db = random_db(seed)
    calls = {"instantiated": 0, "observed": 0}

    def counting(name, method, counter):
        def wrapper(self, *args, **kwargs):
            calls[counter] += 1
            return method(self, *args, **kwargs)

        monkeypatch.setattr(FOQuery, name, wrapper)

    counting("instantiated", FOQuery.instantiated, "instantiated")
    counting("evaluate", FOQuery.evaluate, "observed")
    counting("answers", FOQuery.answers, "observed")
    for formula, methods in LINEAGE_ROUTED:
        query = FOQuery(formula)
        oracle_reliability = reliability(db, query, method="worlds")
        oracle_table = answer_probabilities(db, query, method="worlds")
        for method in methods:
            for run, oracle in (
                (lambda: reliability(db, query, method=method),
                 oracle_reliability),
                (lambda: answer_probabilities(db, query, method=method),
                 oracle_table),
            ):
                clear_caches()
                calls.update(instantiated=0, observed=0)
                assert run() == oracle, (formula, method)
                assert calls == {"instantiated": 0, "observed": 1}, (
                    formula,
                    method,
                )


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_hamming_plan_reads_the_lineage_table(seed, monkeypatch):
    """The compiled Hamming plan takes its cells from the lineage table:
    no tuple is grounded on its own."""
    from repro.kernels.plan import compile_hamming_plan
    from repro.reliability import grounding

    db = random_db(seed)
    calls = []
    ground = grounding.ground_existential_to_dnf

    def counting(*args):
        calls.append(args)
        return ground(*args)

    monkeypatch.setattr(grounding, "ground_existential_to_dnf", counting)
    for query in queries():
        clear_caches()
        assert compile_hamming_plan(db, query) is not None, query
    assert calls == []
