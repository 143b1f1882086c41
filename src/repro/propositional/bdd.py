"""Reduced ordered binary decision diagrams (ROBDDs) for DNF compilation.

A second exact engine beside the Shannon-expansion counter: compile the
(grounded) DNF once into a canonical ROBDD, then answer many questions
in time linear in the diagram —

* weighted probability (one bottom-up pass),
* model counting,
* *all* atom influences simultaneously (one upward + one downward pass,
  the classic Birnbaum-importance-on-BDD algorithm), where the
  conditioning-based approach costs two probability computations per
  atom.

This is the knowledge-compilation route modern probabilistic database
systems took after the complexity landscape of Grädel–Gurevich–Hirsch
made clear that per-query exact inference must exploit structure.

The implementation is a classic hash-consed ``ite``-style builder with
an apply-cache; variable order is the sorted order of the variables
(callers may pass their own).  :func:`compile_dnf` builds each clause
as a chain of nodes and ORs the clauses pairwise, as a balanced tree.

Probabilities are evaluated on integers: every node's value is a
numerator over one common denominator, the product of the per-level
denominators (:meth:`BDD.value_table`), so one node costs a multiply and an
exact floor division instead of three normalising
:class:`~fractions.Fraction` operations.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.propositional.formula import DNF, Clause, Variable
from repro.util.errors import ProbabilityError, QueryError

# Terminal node ids.
ZERO = 0
ONE = 1


class BDD:
    """A reduced ordered BDD over a fixed variable order.

    Nodes are integers; ``0``/``1`` are the terminals, every other node
    is a triple ``(level, low, high)`` interned in :attr:`_unique`.
    """

    __slots__ = ("order", "_level", "_nodes", "_unique", "_apply_cache", "root")

    def __init__(self, order: Sequence[Variable]):
        if len(set(order)) != len(order):
            raise QueryError("variable order contains duplicates")
        self.order: Tuple[Variable, ...] = tuple(order)
        self._level: Dict[Variable, int] = {
            variable: index for index, variable in enumerate(self.order)
        }
        # node id -> (level, low, high); ids 0/1 reserved for terminals.
        self._nodes: List[Tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple[str, int, int], int] = {}
        self.root = ZERO

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _make(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def _level_in_order(self, variable: Variable) -> int:
        try:
            return self._level[variable]
        except KeyError:
            raise QueryError(f"variable {variable!r} not in the order") from None

    def var(self, variable: Variable) -> int:
        """The BDD of a single positive literal."""
        return self._make(self._level_in_order(variable), ZERO, ONE)

    def nvar(self, variable: Variable) -> int:
        """The BDD of a single negative literal."""
        return self._make(self._level_in_order(variable), ONE, ZERO)

    def cube(self, clause: Clause) -> int:
        """The BDD of one conjunctive clause, built bottom-up as a chain.

        A contradictory clause (``x`` and ``~x``) is ``ZERO``.
        """
        if clause.contradictory:
            return ZERO
        literals = sorted(
            (self._level_in_order(literal.variable), literal.positive)
            for literal in clause
        )
        node = ONE
        for level, positive in reversed(literals):
            node = (
                self._make(level, ZERO, node)
                if positive
                else self._make(level, node, ZERO)
            )
        return node

    def _apply(self, op: str, left: int, right: int) -> int:
        if op == "and":
            if left == ZERO or right == ZERO:
                return ZERO
            if left == ONE:
                return right
            if right == ONE:
                return left
        elif op == "or":
            if left == ONE or right == ONE:
                return ONE
            if left == ZERO:
                return right
            if right == ZERO:
                return left
        else:
            raise QueryError(f"unknown BDD operation {op!r}")
        if left == right:
            return left  # both operations are idempotent
        if left > right:
            left, right = right, left
        key = (op, left, right)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        l_level, l_low, l_high = self._nodes[left]
        r_level, r_low, r_high = self._nodes[right]
        if l_level == r_level:
            low = self._apply(op, l_low, r_low)
            high = self._apply(op, l_high, r_high)
            result = self._make(l_level, low, high)
        elif l_level < r_level:
            low = self._apply(op, l_low, right)
            high = self._apply(op, l_high, right)
            result = self._make(l_level, low, high)
        else:
            low = self._apply(op, left, r_low)
            high = self._apply(op, left, r_high)
            result = self._make(r_level, low, high)
        self._apply_cache[key] = result
        return result

    def conj(self, left: int, right: int) -> int:
        return self._apply("and", left, right)

    def disj(self, left: int, right: int) -> int:
        return self._apply("or", left, right)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of internal nodes ever created (diagram size bound)."""
        return len(self._nodes) - 2

    def level_of(self, variable: Variable) -> Optional[int]:
        """The variable's level in the order, or ``None`` if absent.

        The delta engine uses this to bound a re-weighting pass: a
        probability change at level ``a`` can only alter the values of
        nodes at levels ``<= a`` (children sit strictly deeper).
        """
        return self._level.get(variable)

    def node(self, node_id: int) -> Tuple[int, int, int]:
        """The ``(level, low, high)`` triple of an internal node."""
        return self._nodes[node_id]

    def reachable_by_level(self, node: int) -> List[List[int]]:
        """Internal nodes reachable from ``node``, grouped by level.

        Index ``l`` of the result lists the reachable nodes at level
        ``l`` (possibly empty).  Terminals are excluded.  This is the
        delta engine's working set: a bottom-up value table over these
        nodes supports O(levels-above-the-change) re-evaluation.
        """
        levels: List[List[int]] = [[] for _ in self.order]
        seen = {ZERO, ONE}
        pending = [node]
        while pending:
            current = pending.pop()
            if current in seen:
                continue
            seen.add(current)
            level, low, high = self._nodes[current]
            levels[level].append(current)
            pending.append(low)
            pending.append(high)
        return levels

    def evaluate(self, node: int, assignment: Mapping[Variable, bool]) -> bool:
        while node not in (ZERO, ONE):
            level, low, high = self._nodes[node]
            node = high if assignment[self.order[level]] else low
        return node == ONE

    def value_table(
        self,
        node: int,
        probs: Mapping[Variable, Fraction],
        charge: Optional[Callable[[int], None]] = None,
    ) -> Tuple[Dict[int, int], List[List[int]], List[int], List[int]]:
        """``(value, levels, numerators, denominators)`` of ``node``.

        The integer value table, evaluated bottom-up: ``value`` maps the
        terminals and every node reachable from ``node`` to an ``int``
        numerator over ``value[ONE]``, the product of the per-level
        ``denominators`` of ``probs``, so the terminals are ``0`` and
        that product.  A node's value depends only on the levels at or
        below its own, so its numerator is a multiple of every
        denominator above it and each division below is exact.
        ``levels`` is :meth:`reachable_by_level`.  ``charge``, if given,
        is called with each level's node count before the level is
        evaluated (the delta engine charges it to the budget).
        """
        for variable in self.order:
            if variable not in probs:
                raise ProbabilityError(f"no probability for {variable!r}")
        numerators = [probs[variable].numerator for variable in self.order]
        denominators = [probs[variable].denominator for variable in self.order]
        levels = self.reachable_by_level(node)
        value = {ZERO: 0, ONE: prod(denominators)}
        table = self._nodes
        for level in range(len(levels) - 1, -1, -1):
            if charge is not None:
                charge(len(levels[level]))
            numerator, denominator = numerators[level], denominators[level]
            for current in levels[level]:
                _level, low, high = table[current]
                lo = value[low]
                value[current] = lo + numerator * (value[high] - lo) // denominator
        return value, levels, numerators, denominators

    def probability(
        self, node: int, probs: Mapping[Variable, Fraction]
    ) -> Fraction:
        """Weighted probability of the function at ``node`` (exact)."""
        value = self.value_table(node, probs)[0]
        return Fraction(value[node], value[ONE])

    def count_models(self, node: int) -> int:
        """Number of satisfying assignments over the full variable order."""
        half = Fraction(1, 2)
        probability = self.probability(node, {v: half for v in self.order})
        count = probability * (1 << len(self.order))
        assert count.denominator == 1
        return count.numerator

    def influences(
        self, node: int, probs: Mapping[Variable, Fraction]
    ) -> Dict[Variable, Fraction]:
        """All Birnbaum influences in two passes.

        ``I(x) = Pr[f | x=1] - Pr[f | x=0]``.  Upward pass computes each
        node's probability; downward pass accumulates each node's "path
        probability" (probability of reaching it); then
        ``I(x) = sum over x-nodes of reach(node) * (P(high) - P(low))``.
        """
        up, levels, numerators, denominators = self.value_table(node, probs)
        scale = up[ONE]
        # Reach values are numerators over ``scale`` too: a node's reach
        # depends only on the levels above it, so it is a multiple of
        # its own level's denominator and the split below is exact.
        reach: Dict[int, int] = {node: scale}
        totals = [0] * len(self.order)
        for level, nodes in enumerate(levels):
            numerator, denominator = numerators[level], denominators[level]
            for current in nodes:
                r = reach.get(current, 0)
                if r == 0:
                    continue
                _level, low, high = self._nodes[current]
                totals[level] += r * (up[high] - up[low])
                share = r // denominator
                reach[low] = reach.get(low, 0) + share * (denominator - numerator)
                reach[high] = reach.get(high, 0) + share * numerator
        return {
            variable: Fraction(total, scale * scale)
            for variable, total in zip(self.order, totals)
        }


def compile_dnf(
    dnf: DNF, order: Optional[Sequence[Variable]] = None
) -> Tuple[BDD, int]:
    """Compile a DNF into a ROBDD; returns ``(diagram, root_node)``.

    Each clause is built directly as a chain (:meth:`BDD.cube`), then
    the clause diagrams are ORed pairwise, as a balanced tree, rather
    than folded one by one into a growing root.  The ROBDD is canonical,
    so the reachable diagram is the same either way.
    """
    variables = (
        tuple(order) if order is not None else tuple(sorted(dnf.variables, key=repr))
    )
    diagram = BDD(variables)
    nodes = [diagram.cube(clause) for clause in dnf.clauses]
    while len(nodes) > 1:
        paired = [
            diagram.disj(left, right)
            for left, right in zip(nodes[::2], nodes[1::2])
        ]
        if len(nodes) % 2:
            paired.append(nodes[-1])
        nodes = paired
    root = nodes[0] if nodes else ZERO
    diagram.root = root
    return diagram, root


def probability_via_bdd(
    dnf: DNF, probs: Mapping[Variable, Fraction]
) -> Fraction:
    """Exact ``Pr[dnf]`` through BDD compilation (alternative engine)."""
    if dnf.is_true():
        return Fraction(1)
    if dnf.is_false():
        return Fraction(0)
    diagram, root = compile_dnf(dnf)
    return diagram.probability(root, probs)


def influences_via_bdd(
    dnf: DNF, probs: Mapping[Variable, Fraction]
) -> Dict[Variable, Fraction]:
    """All Birnbaum influences of a DNF in one compilation + two passes."""
    if dnf.is_true() or dnf.is_false():
        return {v: Fraction(0) for v in dnf.variables}
    diagram, root = compile_dnf(dnf)
    return diagram.influences(root, probs)
