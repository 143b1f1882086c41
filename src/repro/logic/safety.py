"""The Dalvi–Suciu dichotomy as a *static* query classifier.

Proposition 3.2 makes conjunctive-query reliability #P-hard in general,
but the dichotomy theorem (Dalvi–Suciu, "The Dichotomy of Conjunctive
Queries on Probabilistic Structures") splits the self-join-free Boolean
CQs exactly in two:

* **safe** — the variable structure is *hierarchical* (for any two
  variables, the sets of atoms containing them are nested or disjoint):
  the probability factorises along a safe plan and is computable in
  polynomial time;
* **unsafe** — any witness of non-hierarchy (a variable pair whose atom
  sets overlap without nesting) makes the query #P-complete.

:func:`classify_dichotomy` decides this *before* any engine runs and
returns a verdict object carrying a checkable witness: the hierarchy
tree for safe queries (the safe plan itself, which the lifted engine
runs), the offending variable pair or self-join for unsafe ones.
Queries outside the self-join-free Boolean-CQ fragment get an
out-of-fragment verdict naming the reason — the dichotomy simply does
not speak about them and the runtime falls through to the general chain.

The classifier is load-bearing: the executor's ``safe_lifted`` tier and
the serve router trust a ``safe`` verdict to mean "the lifted
plan terminates with the exact answer".  Its agreement with the
brute-force hierarchy oracle and with the lifted engine itself is
pinned by ``tests/logic/test_safety_differential.py``.

``classify_dichotomy`` never raises: malformed input becomes an
out-of-fragment verdict with the parse error as detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.classify import is_conjunctive
from repro.logic.evaluator import FOQuery
from repro.logic.fo import AtomF, Eq, Formula
from repro.logic.parser import parse
from repro.logic.terms import Var
from repro.util.errors import QueryError

__all__ = [
    "PlanNode",
    "SafeVerdict",
    "UnsafeVerdict",
    "Verdict",
    "classify_dichotomy",
    "hierarchy_oracle",
]

#: Unsafe reasons, in the order the classifier checks them.
#: ``non_hierarchical`` is the only *hard* verdict (provably
#: #P-complete by the dichotomy); the others mark queries the
#: dichotomy does not speak about.
UNSAFE_REASONS: Tuple[str, ...] = (
    "not_first_order",
    "not_boolean",
    "not_conjunctive",
    "equality",
    "self_join",
    "non_hierarchical",
)


@dataclass(frozen=True)
class PlanNode:
    """One node of the hierarchy tree — the safe plan itself.

    ``kind`` is ``"atom"`` (a leaf: the relational ``atom``, whose
    variables are all bound by the projects above it), ``"join"``
    (independent product of components and ground atoms) or
    ``"project"`` (independent project over the root ``variable``).
    :func:`repro.reliability.lifted.lifted_probability` runs this tree:
    a safe verdict *is* the plan the engine executes.
    """

    kind: str
    variable: Optional[Var] = None
    atom: Optional[AtomF] = None
    children: Tuple["PlanNode", ...] = ()

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.kind == "atom":
            return f"{pad}{self.atom}"
        if self.kind == "project":
            lines = [f"{pad}project {self.variable} (independent over the domain):"]
            lines.extend(child.render(indent + 1) for child in self.children)
            return "\n".join(lines)
        if not self.children:
            return f"{pad}join (empty body: always true)"
        lines = [f"{pad}join (independent components):"]
        lines.extend(child.render(indent + 1) for child in self.children)
        return "\n".join(lines)


@dataclass(frozen=True)
class SafeVerdict:
    """The query is safe: PTIME by the lifted plan in ``plan``."""

    plan: PlanNode
    atoms: Tuple[str, ...] = ()

    safe = True
    hard = False
    reason = "safe"

    def summary(self) -> str:
        return (
            "safe: hierarchical self-join-free Boolean CQ "
            "(Dalvi-Suciu dichotomy: PTIME lifted plan)"
        )

    def explain(self) -> str:
        lines = [self.summary(), "hierarchy tree:"]
        lines.append(self.plan.render(1))
        return "\n".join(lines)


@dataclass(frozen=True)
class UnsafeVerdict:
    """The query has no safe plan, with a checkable witness.

    ``reason`` is one of :data:`UNSAFE_REASONS`.  For
    ``non_hierarchical`` the witness is ``(x, y, atoms_x, atoms_y)`` —
    a variable pair whose atom-occurrence sets overlap without nesting
    (re-checkable: ``atoms_x & atoms_y`` non-empty, neither a subset of
    the other); this is the #P-hardness certificate.  For ``self_join``
    the witness is ``(relation, atom_a, atom_b)``.  Out-of-fragment
    reasons carry an empty witness and a human-readable ``detail``.
    """

    reason: str
    detail: str = ""
    witness: Tuple[str, ...] = ()
    occurrences: Tuple[Tuple[str, ...], Tuple[str, ...]] = ((), ())

    safe = False

    @property
    def hard(self) -> bool:
        """True when the verdict certifies #P-completeness."""
        return self.reason == "non_hierarchical"

    def summary(self) -> str:
        if self.reason == "non_hierarchical":
            x, y = self.witness[0], self.witness[1]
            return (
                f"unsafe: variables {x} and {y} overlap without nesting "
                "(#P-complete by the Dalvi-Suciu dichotomy)"
            )
        if self.reason == "self_join":
            return (
                f"unsafe: relation {self.witness[0]} occurs in two atoms "
                "(self-join: outside the dichotomy's fragment, "
                "#P-hard in general by Prop 3.2)"
            )
        return f"out of fragment ({self.reason}): {self.detail}"

    def explain(self) -> str:
        lines = [self.summary()]
        if self.reason == "non_hierarchical":
            x, y = self.witness[0], self.witness[1]
            ax, ay = self.occurrences
            lines.append(f"  atoms({x}) = {{{', '.join(ax)}}}")
            lines.append(f"  atoms({y}) = {{{', '.join(ay)}}}")
            lines.append(
                "  the sets intersect but neither contains the other, "
                "so no safe plan exists"
            )
        elif self.reason == "self_join":
            lines.append(
                f"  offending atoms: {self.witness[1]} and {self.witness[2]}"
            )
        lines.append("routing: falls through to the general engine chain")
        return "\n".join(lines)


Verdict = Union[SafeVerdict, UnsafeVerdict]


# ---------------------------------------------------------------------- #
# classification
# ---------------------------------------------------------------------- #


def _coerce(query) -> Union[ConjunctiveQuery, UnsafeVerdict]:
    """Normalise any query-like object to a Boolean CQ or a verdict."""
    if isinstance(query, str):
        try:
            query = parse(query)
        except Exception as exc:  # parse errors: out of fragment, not a crash
            return UnsafeVerdict("not_first_order", str(exc))
    if isinstance(query, FOQuery):
        if query.arity != 0:
            return UnsafeVerdict(
                "not_boolean",
                f"query has arity {query.arity}; the dichotomy is about "
                "Boolean queries — instantiate free variables first",
            )
        query = query.formula
    if isinstance(query, Formula):
        if not is_conjunctive(query):
            return UnsafeVerdict(
                "not_conjunctive", "the formula is not a conjunctive query"
            )
        try:
            query = ConjunctiveQuery.from_formula(query)
        except QueryError as exc:
            return UnsafeVerdict("not_conjunctive", str(exc))
    if not isinstance(query, ConjunctiveQuery):
        return UnsafeVerdict(
            "not_first_order",
            f"cannot classify a {type(query).__name__}; the dichotomy is "
            "about conjunctive queries",
        )
    if query.arity != 0:
        return UnsafeVerdict(
            "not_boolean",
            f"query has arity {query.arity}; the dichotomy is about "
            "Boolean queries — instantiate free variables first",
        )
    return query


def _atom_vars(atom: AtomF) -> FrozenSet[Var]:
    return frozenset(t for t in atom.args if isinstance(t, Var))


_Item = Tuple[AtomF, FrozenSet[Var]]


def _components(items: List[_Item]) -> List[List[_Item]]:
    """Variable-connected components of ``(atom, unbound vars)`` pairs."""
    remaining = list(items)
    components: List[List[_Item]] = []
    while remaining:
        seed = remaining.pop()
        component = [seed]
        variables = set(seed[1])
        changed = True
        while changed:
            changed = False
            still = []
            for item in remaining:
                if item[1] & variables:
                    component.append(item)
                    variables |= item[1]
                    changed = True
                else:
                    still.append(item)
            remaining = still
        components.append(component)
    return components


def _build_tree(items: List[_Item]) -> PlanNode:
    """The hierarchy tree of a hierarchical atom set.

    Atoms with no unbound variable become leaves, variable-connected
    components become independent-project nodes over their root variable
    (the variable in *every* atom of the component — guaranteed to
    exist because the caller verified hierarchy), in the order of their
    first atom's text.
    """
    ground = [item for item in items if not item[1]]
    open_items = [item for item in items if item[1]]
    nodes: List[PlanNode] = [
        PlanNode("atom", atom=atom) for atom, _ in ground
    ]
    for component in sorted(
        _components(open_items), key=lambda c: str(c[0][0])
    ):
        shared = set(component[0][1])
        for _, variables in component[1:]:
            shared &= variables
        root = sorted(shared)[0]  # non-empty: the hierarchy check passed
        child_items = [
            (atom, variables - {root}) for atom, variables in component
        ]
        nodes.append(
            PlanNode(
                "project",
                variable=root,
                children=(_build_tree(child_items),),
            )
        )
    if len(nodes) == 1:
        return nodes[0]
    return PlanNode("join", children=tuple(nodes))


def classify_dichotomy(query) -> Verdict:
    """Decide the Dalvi–Suciu dichotomy for ``query``, statically.

    Accepts a :class:`~repro.logic.conjunctive.ConjunctiveQuery`, a
    :class:`~repro.logic.evaluator.FOQuery`, a
    :class:`~repro.logic.fo.Formula`, or query text.  Returns a
    :class:`SafeVerdict` (with the hierarchy tree as witness) or an
    :class:`UnsafeVerdict` (with the offending variable pair, the
    self-join, or the out-of-fragment reason).  Never raises.
    """
    coerced = _coerce(query)
    if isinstance(coerced, UnsafeVerdict):
        return coerced
    cq = coerced

    atoms: List[AtomF] = []
    for part in cq.body:
        if isinstance(part, Eq):
            return UnsafeVerdict(
                "equality",
                "equality atoms are outside the lifted fragment; "
                "substitute them away first",
            )
        atoms.append(part)
    # Duplicate atoms are one event; distinct atoms sharing a relation
    # are a self-join (the fragment boundary).
    atoms = list(dict.fromkeys(atoms))
    seen = {}
    for atom in atoms:
        if atom.relation in seen:
            return UnsafeVerdict(
                "self_join",
                f"relation {atom.relation} occurs more than once",
                witness=(atom.relation, str(seen[atom.relation]), str(atom)),
            )
        seen[atom.relation] = atom

    occurrences: dict = {}
    for index, atom in enumerate(atoms):
        for variable in _atom_vars(atom):
            occurrences.setdefault(variable, set()).add(index)
    variables = sorted(occurrences)
    for i, x in enumerate(variables):
        for y in variables[i + 1 :]:
            sx, sy = occurrences[x], occurrences[y]
            if sx & sy and not (sx <= sy or sy <= sx):
                return UnsafeVerdict(
                    "non_hierarchical",
                    f"atom sets of {x.name} and {y.name} overlap "
                    "without nesting",
                    witness=(
                        x.name,
                        y.name,
                        tuple(str(atoms[k]) for k in sorted(sx)),
                        tuple(str(atoms[k]) for k in sorted(sy)),
                    ),
                    occurrences=(
                        tuple(str(atoms[k]) for k in sorted(sx)),
                        tuple(str(atoms[k]) for k in sorted(sy)),
                    ),
                )

    items = [(atom, _atom_vars(atom)) for atom in atoms]
    return SafeVerdict(
        plan=_build_tree(items), atoms=tuple(str(a) for a in atoms)
    )


def hierarchy_oracle(atom_variable_sets: Sequence[FrozenSet[str]]) -> bool:
    """Brute-force hierarchy check over raw variable sets (test oracle).

    ``atom_variable_sets[i]`` is the set of variable names in atom
    ``i``.  Returns True iff for every variable pair the occurrence
    sets are nested or disjoint — the textbook definition, computed
    with no shared code paths with :func:`classify_dichotomy` (the
    differential suite pins their agreement).
    """
    occurrences: dict = {}
    for index, names in enumerate(atom_variable_sets):
        for name in names:
            occurrences.setdefault(name, set()).add(index)
    names = list(occurrences)
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            sx, sy = occurrences[x], occurrences[y]
            if sx & sy and not (sx <= sy or sy <= sx):
                return False
    return True
