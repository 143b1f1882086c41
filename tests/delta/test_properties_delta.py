"""Property suite: delta answers equal cold recomputes, bit for bit.

The central invariant of :mod:`repro.delta`: after **any** stream of
``set_mu`` / ``insert`` / ``delete`` updates, the maintained Fraction
equals ``truth_probability`` (and ``reliability``) evaluated from
scratch on the session's current database.  Equality is ``==`` on
exact Fractions — one bit of drift fails the property.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.delta import DeltaSession
from repro.kernels import cache_persist
from repro.kernels.cache import clear_caches
from repro.relational.atoms import Atom
from repro.relational.schema import Vocabulary
from repro.relational.structure import Structure
from repro.reliability.exact import reliability, truth_probability
from repro.reliability.grounding import ground_existential_to_dnf
from repro.reliability.unreliable import UnreliableDatabase

UNIVERSE = ("a", "b")
VOCAB = Vocabulary([("E", 2), ("S", 1)])
ALL_ATOMS = tuple(
    Atom("E", (x, y)) for x in UNIVERSE for y in UNIVERSE
) + tuple(Atom("S", (x,)) for x in UNIVERSE)

QUERIES = (
    "exists x y. E(x, y) & E(y, x)",
    "exists x. S(x) & E(x, x)",
    "exists x y. S(x) & E(x, y) & ~E(y, x)",
    "forall x. S(x)",
)

# Mixed denominators 1..12: most weight moves change their level's
# denominator, which exercises the value table's rescale path.
probabilities = st.integers(min_value=1, max_value=12).flatmap(
    lambda den: st.builds(
        Fraction, st.integers(min_value=0, max_value=den), st.just(den)
    )
)


@st.composite
def unreliable_dbs(draw):
    rows_e = draw(
        st.frozensets(
            st.tuples(st.sampled_from(UNIVERSE), st.sampled_from(UNIVERSE))
        )
    )
    rows_s = draw(st.frozensets(st.tuples(st.sampled_from(UNIVERSE))))
    structure = Structure(VOCAB, UNIVERSE, {"E": rows_e, "S": rows_s})
    mu = {}
    for atom in draw(st.frozensets(st.sampled_from(ALL_ATOMS), max_size=4)):
        mu[atom] = draw(probabilities)
    return UnreliableDatabase(structure, mu)


@st.composite
def update_streams(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["set_mu", "insert", "delete"]))
        atom = draw(st.sampled_from(ALL_ATOMS))
        if kind == "set_mu":
            ops.append((kind, atom, draw(probabilities)))
        else:
            ops.append((kind, atom))
    return ops


def _apply(session, op):
    if op[0] == "set_mu":
        session.set_mu(op[1], op[2])
    elif op[0] == "insert":
        session.insert(op[1])
    else:
        session.delete(op[1])


@given(unreliable_dbs(), update_streams(), st.sampled_from(QUERIES))
@settings(max_examples=40, deadline=None)
def test_delta_stream_equals_cold_recompute(db, ops, query):
    session = DeltaSession(db, query)
    assert session.probability() == truth_probability(db, query)
    for op in ops:
        _apply(session, op)
        assert session.probability() == truth_probability(session.db, query)
    assert session.reliability() == reliability(session.db, query)
    # The escape hatch lands on the same value the deltas maintained.
    assert session.recompute() == truth_probability(session.db, query)


@given(unreliable_dbs(), update_streams())
@settings(max_examples=25, deadline=None)
def test_interleaved_queries_share_one_database(db, ops):
    """Two sessions over the same stream stay mutually consistent."""
    first = DeltaSession(db, QUERIES[0])
    second = DeltaSession(db, QUERIES[1])
    for op in ops:
        _apply(first, op)
        _apply(second, op)
        assert first.db.fingerprint() == second.db.fingerprint()
        assert first.probability() == truth_probability(
            first.db, QUERIES[0]
        )
        assert second.probability() == truth_probability(
            second.db, QUERIES[1]
        )


@given(unreliable_dbs(), st.sampled_from(QUERIES[:3]))
@settings(max_examples=25, deadline=None)
def test_persist_round_trip_preserves_the_plan(tmp_path_factory, db, query):
    """A grounding written to disk reloads equal, and answers match."""
    directory = tmp_path_factory.mktemp("persist")
    cache_persist.configure(str(directory))
    try:
        clear_caches()
        formula = DeltaSession(db, query)._base
        cold_dnf = ground_existential_to_dnf(db, formula)
        cold = truth_probability(db, query)
        clear_caches()  # drop memory; the disk tier survives
        warm_dnf = ground_existential_to_dnf(db, formula)
        assert warm_dnf == cold_dnf  # plan equality through the pickle
        assert truth_probability(db, query) == cold
    finally:
        cache_persist.deactivate()
        clear_caches()
