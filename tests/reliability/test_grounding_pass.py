"""Differential test of Theorem 5.4's grounding pass.

The pass compiles each clause template against per-relation lookup
tables and walks the variables as one nest of levels, skipping every
valuation under a literal that folds to false.  The oracle below is the
proof's literal product loop: every free tuple, every template, every
valuation of the existential variables, one clause each, folded atom by
atom through ``mu``.  The pass must return the same DNFs clause for
clause and in order, the same certain tuples, the same raw and kept
counters and the same ``budget.ground_clauses`` ledger, also when a
clause cap stops both part way.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from repro import obs
from repro.kernels.cache import clear_caches, compilation_cache
from repro.logic.evaluator import FOQuery
from repro.logic.fo import AtomF, Eq, Not, Top
from repro.logic.normalform import dnf_clauses, existential_parts
from repro.logic.terms import Const
from repro.propositional.formula import DNF, Clause, Literal
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.grounding import (
    _ground_pass,
    ground_answers,
    ground_existential_to_dnf,
    wrong_target,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import Budget, apply, checkpoint
from repro.runtime.preflight import preflight_grounding
from repro.util.errors import BudgetExceeded, CostRefused


def reference_pass(db, formula, free):
    """The product loop: ``(raw, certain, dnfs)`` as Theorem 5.4 reads."""
    variables, matrix = existential_parts(formula)
    universe = db.structure.universe
    preflight_grounding(len(universe), len(variables), len(dnf_clauses(matrix)))
    raw, certain, dnfs = 0, [], {}
    for args in product(universe, repeat=len(free)):
        clauses, is_certain = [], False
        for template in dnf_clauses(matrix):
            for values in product(universe, repeat=len(variables)):
                env = {**dict(zip(free, args)), **dict(zip(variables, values))}
                raw += 1
                checkpoint(clauses=1)
                literals, alive = [], True
                for part in template:
                    positive = not isinstance(part, Not)
                    core = part if positive else part.sub
                    value = lambda t: t.value if isinstance(t, Const) else env[t]
                    if isinstance(core, Eq):
                        truth = value(core.left) == value(core.right)
                    elif isinstance(core, AtomF):
                        atom = Atom(core.relation, tuple(map(value, core.args)))
                        error = db.mu(atom)
                        if 0 < error < 1:
                            literals.append(Literal(atom, positive))
                            continue
                        truth = db.structure.holds(atom) != (error == 1)
                    else:
                        truth = isinstance(core, Top)
                    alive = alive and truth == positive
                clause = Clause(literals)
                if alive and not clause.contradictory:
                    if not len(clause):
                        is_certain = True
                        break
                    clauses.append(clause)
            if is_certain:
                break
        if is_certain:
            certain.append(args)
        elif DNF(clauses).clauses:
            dnfs[args] = DNF(clauses)
    return raw, certain, dnfs


ERRORS = [Fraction(0), Fraction(1), Fraction(1, 10), Fraction(1, 3),
          Fraction(1, 2), Fraction(9, 10)]

#: ``(formula, free variables)``: constants, equalities, Top/Bottom,
#: negated atoms, repeated variables, universal targets (through
#: ``wrong_target``) and a free/bound name clash.
QUERIES = [
    ("S(x, y)", ("x", "y")),
    ("S(x, y)", ("y", "x")),
    ("S(x, x)", ("x",)),
    ("exists y. S(x, y) & T(y)", ("x",)),
    ("exists x y. R(x) & S(x, y) & T(y)", ()),
    ("exists y z. S(x, y) & S(y, z) & ~T(z)", ("x",)),
    ("exists y. S(y, y) & x != y", ("x",)),
    ("exists y. S(x, y) & x = y | T(x) & true", ("x",)),
    ("exists y. S(1, y) & ~R(y) | S(y, 'q')", ()),
    ("exists y. T(y) & false | R(x)", ("x",)),
    ("exists x. T(x) | true", ()),
    ("R(0) & ~T(1)", ()),
    ("forall y. S(x, y) | ~T(y)", ("x",)),
    ("forall x y. ~R(x) | S(x, y) | ~T(y)", ()),
    ("T(x) & exists x. S(x, x)", ("x",)),
    # A template that makes tuples certain, then one that prunes at
    # the first free level, across some of those tuples.
    ("T(y) | R(x) & S(x, y)", ("x", "y")),
    ("exists z. T(y) & S(z, z) | R(x) & ~S(y, z)", ("x", "y")),
]


def random_db(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    builder = StructureBuilder(list(range(n)))
    builder.relation("R", 1).relation("S", 2).relation("T", 1)
    mu = {}
    for name, arity in (("R", 1), ("S", 2), ("T", 1)):
        for args in product(range(n), repeat=arity):
            if rng.random() < 0.45:
                builder.add(name, args)
            if rng.random() < 0.5:
                mu[Atom(name, args)] = rng.choice(ERRORS)
    default = rng.choice([0, 0, 0, Fraction(1, 4), 1])
    return UnreliableDatabase(builder.build(), mu, default_error=default)


def both(db, formula, free, cap=None, spent=0):
    """``(ledger, outcome)`` of the pass and of the oracle under a fresh
    budget that has ``spent`` clauses already; ``outcome`` is the
    error's type when the cap stopped it (``CostRefused``: the preflight
    refused the pass)."""
    results = []
    for run in (_ground_pass, reference_pass):
        budget = Budget(max_ground_clauses=cap)
        budget.ground_clauses = spent
        try:
            with apply(budget):
                outcome = run(db, formula, free)
        except (BudgetExceeded, CostRefused) as stop:
            outcome = type(stop)
        results.append((budget.ground_clauses, outcome))
    return results


def clause_literals(dnfs):
    return {
        args: [[(l.variable, l.positive) for l in c] for c in dnf.clauses]
        for args, dnf in dnfs.items()
    }


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("text, free", QUERIES)
def test_pass_matches_product_loop(seed, text, free):
    query = FOQuery(text, list(free) or None)
    target = wrong_target(query.formula)
    db = random_db(seed)
    recorder = obs.StatsRecorder()
    previous = obs.set_recorder(recorder)
    try:
        (ledger, got), (want_ledger, want) = both(
            db, target, query.free_order
        )
    finally:
        obs.set_recorder(previous)
    _, raw, certain, dnfs = got
    want_raw, want_certain, want_dnfs = want
    assert (raw, ledger) == (want_raw, want_ledger)
    assert certain == want_certain
    assert list(dnfs) == list(want_dnfs)
    assert clause_literals(dnfs) == clause_literals(want_dnfs)
    counters = recorder.summary()["counters"]
    kept = len(want_certain) + sum(len(d.clauses) for d in want_dnfs.values())
    assert counters.get("grounding.clauses_raw", 0) == want_raw
    assert counters.get("grounding.clauses_kept", 0) == kept


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("text, free", QUERIES)
def test_capped_pass_stops_at_the_same_ledger(seed, text, free):
    query = FOQuery(text, list(free) or None)
    target = wrong_target(query.formula)
    db = random_db(seed)
    full = reference_pass(db, target, query.free_order)[0]
    for cap in sorted({1, full // 3, full // 2, full - 1, full} - {0}):
        (ledger, got), (want_ledger, want) = both(
            db, target, query.free_order, cap
        )
        assert ledger == want_ledger
        stopped = (BudgetExceeded, CostRefused)
        assert (got in stopped and got) == (want in stopped and want)


@pytest.mark.parametrize("text, free", QUERIES)
def test_exhausted_ledger_stops_at_the_first_clause(text, free):
    # A retry continues the ledger its failed try left past the cap.
    query = FOQuery(text, list(free) or None)
    db = random_db(5)
    cap = 10**6
    (ledger, got), (want_ledger, want) = both(
        db, wrong_target(query.formula), query.free_order, cap, cap + 1
    )
    assert (ledger, got) == (want_ledger, want) == (cap + 2, BudgetExceeded)


def test_sentence_dnf_matches_product_loop():
    db = random_db(3)
    sentence = FOQuery("exists x y. R(x) & S(x, y) & ~T(y)").formula
    raw, certain, dnfs = reference_pass(db, sentence, ())
    result = ground_existential_to_dnf(db, sentence)
    assert result.clauses_before_folding == raw
    want = DNF.true() if certain else dnfs.get((), DNF([]))
    assert clause_literals({(): result.dnf}) == clause_literals({(): want})


def test_deadline_mid_pass_caches_nothing():
    clear_caches()
    db = next(d for d in map(random_db, range(100)) if d.universe_size == 4)
    query = FOQuery("exists z. S(x, z) & S(z, y)")
    ticks = iter(range(10**6))
    # Each checkpoint reads the clock once: the deadline passes mid-pass.
    budget = Budget(deadline=5.0, clock=lambda: float(next(ticks)))
    with pytest.raises(BudgetExceeded):
        with apply(budget):
            ground_answers(db, query)
    assert 0 < budget.ground_clauses < db.universe_size**3
    assert len(compilation_cache) == 0
    ground_answers(db, query)
    assert len(compilation_cache) == 1
