"""Property-based tests for the Datalog engine, the algebra compiler and
the lifted-inference engine, each against an independent oracle."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.logic.algebra import rel
from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.datalog import reachability_query
from repro.relational.schema import Vocabulary
from repro.relational.structure import Structure
from repro.reliability.exact import truth_probability
from repro.reliability.lifted import (
    UnsafeQueryError,
    is_safe,
    lifted_probability,
)
from repro.reliability.unreliable import UnreliableDatabase

NODES = (0, 1, 2, 3)
GRAPH_VOCAB = Vocabulary([("E", 2)])

edges_strategy = st.frozensets(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    max_size=10,
)


def _floyd_warshall(edges):
    reach = {(u, v) for u, v in edges}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(reach):
            for (c, d) in list(reach):
                if b == c and (a, d) not in reach:
                    reach.add((a, d))
                    changed = True
    return reach


@given(edges_strategy)
@settings(max_examples=80, deadline=None)
def test_datalog_reachability_matches_transitive_closure(edges):
    structure = Structure(GRAPH_VOCAB, NODES, {"E": edges})
    assert reachability_query().answers(structure) == _floyd_warshall(edges)


STORE_VOCAB = Vocabulary([("R", 1), ("S", 2)])
ELEMENTS = ("a", "b", "c")


@st.composite
def stores(draw):
    rows_r = draw(st.frozensets(st.tuples(st.sampled_from(ELEMENTS))))
    rows_s = draw(
        st.frozensets(
            st.tuples(st.sampled_from(ELEMENTS), st.sampled_from(ELEMENTS))
        )
    )
    return Structure(STORE_VOCAB, ELEMENTS, {"R": rows_r, "S": rows_s})


ALGEBRA_CASES = [
    lambda: rel("S", "x", "y"),
    lambda: rel("S", "x", "y").project("x"),
    lambda: rel("R", "x").join(rel("S", "x", "y")),
    lambda: rel("R", "x").join(rel("S", "x", "y")).project("y"),
    lambda: rel("R", "x").union(rel("S", "x", "y").project("x")),
    lambda: rel("R", "x").difference(rel("S", "x", "y").project("x")),
    lambda: rel("S", "x", "y").select(y="a"),
    lambda: rel("S", "x", "y").select_eq("x", "y"),
]


@given(st.sampled_from(ALGEBRA_CASES), stores())
@settings(max_examples=100, deadline=None)
def test_algebra_compilation_agrees_with_set_semantics(make, store):
    expr = make()
    assert expr.to_fo_query().answers(store) == expr.rows(store)


probabilities = st.sampled_from(
    [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(0)]
)


@st.composite
def unreliable_stores(draw):
    store = draw(stores())
    mu = {}
    for atom in store.atoms():
        p = draw(probabilities)
        if p:
            mu[atom] = p
    return UnreliableDatabase(store, mu)


SAFE_QUERIES = [
    "exists x. R(x)",
    "exists x y. S(x, y)",
    "exists x y. R(x) & S(x, y)",
]


@given(st.sampled_from(SAFE_QUERIES), unreliable_stores())
@settings(max_examples=40, deadline=None)
def test_lifted_inference_matches_world_enumeration(text, db):
    query = ConjunctiveQuery.from_text(text)
    assert is_safe(query)
    lifted = lifted_probability(db, query)
    oracle = truth_probability(db, query.to_formula(), method="worlds")
    assert lifted == oracle


# ---------------------------------------------------------------------- #
# BDD engine properties
# ---------------------------------------------------------------------- #

from repro.propositional.bdd import compile_dnf, influences_via_bdd
from repro.propositional.counting import (
    probability_enumerate,
    probability_exact,
)
from repro.propositional.formula import DNF, Clause, Literal

_bdd_variables = st.sampled_from(["p", "q", "r", "s", "t"])
_bdd_literals = st.builds(Literal, _bdd_variables, st.booleans())
_bdd_clauses = st.builds(Clause, st.lists(_bdd_literals, min_size=1, max_size=3))
_bdd_dnfs = st.builds(DNF, st.lists(_bdd_clauses, min_size=0, max_size=6))
_bdd_probs = st.builds(
    Fraction, st.integers(min_value=1, max_value=7), st.just(8)
)


@st.composite
def _weighted_bdd_dnfs(draw):
    dnf = draw(_bdd_dnfs)
    probs = {v: draw(_bdd_probs) for v in dnf.variables}
    return dnf, probs


@given(_weighted_bdd_dnfs())
@settings(max_examples=60, deadline=None)
def test_bdd_probability_matches_shannon(case):
    """The engine that replaced Shannon expansion equals enumeration."""
    dnf, probs = case
    assert probability_exact(dnf, probs) == probability_enumerate(dnf, probs)


@given(_weighted_bdd_dnfs())
@settings(max_examples=40, deadline=None)
def test_bdd_influences_match_conditioning(case):
    dnf, probs = case
    if dnf.is_true() or dnf.is_false():
        return
    influences = influences_via_bdd(dnf, probs)
    for variable in dnf.variables:
        high = probability_enumerate(dnf.restrict(variable, True), probs)
        low = probability_enumerate(dnf.restrict(variable, False), probs)
        assert influences[variable] == high - low


@given(_bdd_dnfs)
@settings(max_examples=60, deadline=None)
def test_bdd_canonicity(dnf):
    """Equivalent formulas share a root under the same order."""
    order = sorted({v for v in dnf.variables} | {"p", "q", "r", "s", "t"})
    diagram1, root1 = compile_dnf(dnf, order=order)
    # Rebuild from a clause permutation: same function, same root id
    # within ONE shared diagram (canonicity of reduced OBDDs).
    diagram = diagram1
    rebuilt = 0
    for clause in reversed(dnf.clauses):
        node = 1
        for literal in sorted(clause, key=lambda l: repr(l.variable)):
            leaf = (
                diagram.var(literal.variable)
                if literal.positive
                else diagram.nvar(literal.variable)
            )
            node = diagram.conj(node, leaf)
        rebuilt = diagram.disj(rebuilt, node)
    assert rebuilt == root1


# ---------------------------------------------------------------------------
# Model chain ordering: tier-safety under arbitrary predictions.

from repro.runtime.costmodel import (  # noqa: E402
    FEATURE_NAMES,
    engine_guarantee,
)
from tests.cost_tables import TableModel  # noqa: E402

_ENGINE_NAMES = ("exact", "lifted", "karp_luby", "montecarlo")
# Any float a model could predict: NaN, +-inf, 1e300 and the rest.
_predictions = st.dictionaries(
    st.sampled_from(_ENGINE_NAMES),
    st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300]),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    ),
)
_chains = st.lists(st.sampled_from(_ENGINE_NAMES), min_size=1, max_size=8)
_features = st.fixed_dictionaries(
    {
        name: st.floats(
            min_value=0.0, max_value=1e30, allow_nan=False
        )
        for name in FEATURE_NAMES
    }
)


def _tier_runs(chain, quantity):
    """Maximal consecutive same-tier runs as (tier, engine-multiset)."""
    runs = []
    for engine in chain:
        tier = engine_guarantee(engine, quantity)
        if runs and runs[-1][0] == tier:
            runs[-1][1].append(engine)
        else:
            runs.append((tier, [engine]))
    return [(tier, sorted(names)) for tier, names in runs]


@given(
    _predictions,
    _chains,
    _features,
    st.sampled_from(["reliability", "probability"]),
)
@settings(max_examples=200, deadline=None)
def test_order_chain_permutes_only_within_guarantee_tiers(
    predictions, chain, features, quantity
):
    """Adversarial predictions (NaN/inf/huge) may reorder a chain only
    inside maximal same-tier runs: the tier sequence and each run's
    engine multiset are invariant, so the executor's degradation
    contract (exact > relative > additive) survives any cost table."""
    model = TableModel(predictions)
    ordered = model.order_chain(tuple(chain), features, quantity)
    assert sorted(ordered) == sorted(chain)
    assert _tier_runs(ordered, quantity) == _tier_runs(chain, quantity)
    # Ordering is deterministic: same inputs, same permutation.
    assert ordered == model.order_chain(tuple(chain), features, quantity)
