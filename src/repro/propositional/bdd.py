"""Reduced ordered binary decision diagrams (ROBDDs): the exact DNF engine.

Exact ``Pr[dnf]`` is #P-hard (Proposition 3.2), so every exact DNF
engine is exponential in the worst case; this is the one the library
uses (:func:`repro.propositional.counting.probability_exact`, the
grounded routes of :mod:`repro.reliability.exact`, influences and the
delta engine).  Compile the (grounded) DNF once into a canonical ROBDD,
then answer many questions in time linear in the diagram —

* weighted probability (one bottom-up pass),
* model counting,
* *all* atom influences simultaneously (one upward + one downward pass,
  the classic Birnbaum-importance-on-BDD algorithm), where conditioning
  costs two probability computations per atom.

This is the knowledge-compilation route modern probabilistic database
systems took after the complexity landscape of Grädel–Gurevich–Hirsch
made clear that per-query exact inference must exploit structure.

The implementation is a classic hash-consed ``ite``-style builder with
an apply-cache.  The diagram's size depends on the variable order:
:func:`compile_dnf` defaults to the sorted order of the variables, and
the exact engine compiles in :func:`clause_order` (:func:`compile_exact`):
one connected component of the formula after another, each by first
occurrence in clause order.  That keeps the variables of one clause, and
of clauses that share atoms, on neighbouring levels — on grounded
lineages such as the non-hierarchical ``R(x) & S(x, y) & T(y)`` that is
an order of magnitude fewer nodes — and puts variable-disjoint
components on disjoint runs of levels, so the diagram of their OR is
the sum of theirs (``E(x, y) & S(y)`` grounds to one component per
``y``, interleaved in clause order).  :meth:`BDD.add_variable` appends
new bottom levels.
:func:`compile_dnf` builds each clause as a chain of nodes and ORs the
clauses pairwise, as a balanced tree that the diagram keeps
(:attr:`BDD.tree`): :meth:`BDD.patch` redoes only the ORs on the paths
of changed clauses, and :meth:`BDD.compacted` copies out the nodes the
tree still reaches.  Building checkpoints the active budget once every
:data:`~repro.runtime.budget.CHECKPOINT_CHUNK` build steps, so a compile
can be cancelled or run out of time; the passes over a built diagram
are linear in it and do not.

Probabilities are evaluated on integers: every node's value is a
numerator over one common denominator, the product of the per-level
denominators (:meth:`BDD.value_table`), so one node costs a multiply and an
exact floor division instead of three normalising
:class:`~fractions.Fraction` operations.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import (
    Container,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.propositional.formula import DNF, Clause, Variable
from repro.runtime.budget import CHECKPOINT_CHUNK, checkpoint
from repro.util.errors import ProbabilityError, QueryError

# Terminal node ids.
ZERO = 0
ONE = 1


class BDD:
    """A reduced ordered BDD over a fixed variable order.

    Nodes are integers; ``0``/``1`` are the terminals, every other node
    is a triple ``(level, low, high)`` interned in :attr:`_unique`.
    :attr:`tree` is the OR tree :func:`compile_dnf` built over the
    clauses, heap-ordered: ``tree[1]`` is the root, entry ``i`` is the
    OR of entries ``2 * i`` and ``2 * i + 1``, and the leaves (one
    clause each) fill the second half.
    """

    __slots__ = (
        "order", "_level", "_nodes", "_unique", "_apply_cache", "tree"
    )

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
        self.tree: List[int] = [ZERO, ZERO]

    def __getstate__(self):
        # The unique table and level map are derived from the nodes;
        # the apply cache is scratch.
        return self.order, self._nodes, self.tree

    def __setstate__(self, state):
        order, nodes, tree = state
        self.order = order
        self._level = {variable: index for index, variable in enumerate(order)}
        self._nodes = nodes
        self._unique = {
            key: node for node, key in enumerate(nodes) if node > ONE
        }
        self._apply_cache = {}
        self.tree = tree

    def copy(self) -> "BDD":
        """An independent copy: same order, nodes and tree, no apply cache."""
        copy = BDD.__new__(BDD)
        copy.order = self.order
        copy._level = dict(self._level)
        copy._nodes = list(self._nodes)
        copy._unique = dict(self._unique)
        copy._apply_cache = {}
        copy.tree = list(self.tree)
        return copy

    def add_variable(self, variable: Variable) -> int:
        """The level of ``variable``, appended as a new bottom level if new.

        Existing levels, and so every existing node id, keep their
        meaning.
        """
        level = self._level.get(variable)
        if level is None:
            level = self._level[variable] = len(self.order)
            self.order += (variable,)
        return level

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
        """``left op right``, evaluated on an explicit stack.

        The recursion of the textbook ``apply`` is unrolled: ``pending``
        holds operand pairs still to combine and, below each pair's
        halves, a build step ``(level, 0, cache key)`` that pops the two
        results and makes the node (:meth:`_make`, inlined in this hot
        loop).  Halves run low before high.  The depth of a diagram is
        bounded by memory, not by the interpreter's stack.  Every
        :data:`CHECKPOINT_CHUNK` build steps run a :func:`checkpoint`
        that charges nothing: deadlines and cancellation reach a long
        compile.
        """
        if op == "and":
            absorbing, neutral = ZERO, ONE
        elif op == "or":
            absorbing, neutral = ONE, ZERO
        else:
            raise QueryError(f"unknown BDD operation {op!r}")
        cache = self._apply_cache
        table = self._nodes
        unique = self._unique
        pending = [(left, right, None)]
        push, pop = pending.append, pending.pop
        results: List[int] = []
        emit = results.append
        countdown = CHECKPOINT_CHUNK
        while pending:
            f, g, key = pop()
            if key is not None:
                countdown -= 1
                if not countdown:
                    checkpoint()
                    countdown = CHECKPOINT_CHUNK
                high = results.pop()
                low = results.pop()
                if low == high:
                    node = low
                else:
                    triple = (f, low, high)
                    node = unique.get(triple)
                    if node is None:
                        node = len(table)
                        table.append(triple)
                        unique[triple] = node
                cache[key] = node
                emit(node)
                continue
            if f == absorbing or g == absorbing:
                emit(absorbing)
                continue
            if f == neutral:
                emit(g)
                continue
            if g == neutral or f == g:
                emit(f)  # both operations are idempotent
                continue
            if f > g:
                f, g = g, f
            key = (op, f, g)
            node = cache.get(key)
            if node is not None:
                emit(node)
                continue
            f_level, f_low, f_high = table[f]
            g_level, g_low, g_high = table[g]
            if f_level == g_level:
                push((f_level, 0, key))
                push((f_high, g_high, None))
                push((f_low, g_low, None))
            elif f_level < g_level:
                push((f_level, 0, key))
                push((f_high, g, None))
                push((f_low, g, None))
            else:
                push((g_level, 0, key))
                push((f, g_high, None))
                push((f, g_low, None))
        return results[0]

    def conj(self, left: int, right: int) -> int:
        return self._apply("and", left, right)

    def disj(self, left: int, right: int) -> int:
        return self._apply("or", left, right)

    def or_tree(self, leaves: Sequence[int]) -> List[int]:
        """The heap-ordered OR tree (see :attr:`tree`) over ``leaves``.

        The leaf row is padded with ``ZERO`` to a power of two.
        """
        size = 1 << max(len(leaves) - 1, 0).bit_length()
        tree = [ZERO] * size + list(leaves) + [ZERO] * (size - len(leaves))
        for index in range(size - 1, 0, -1):
            left, right = tree[2 * index], tree[2 * index + 1]
            # Most slots of a grounding are folded: no call for those.
            tree[index] = (
                left if right == ZERO
                else right if left == ZERO
                else self._apply("or", left, right)
            )
        return tree

    def patch(
        self, tree: Sequence[int], leaves: Mapping[int, int]
    ) -> Dict[int, int]:
        """The entries of OR tree ``tree`` that change when leaf ``slot``
        becomes ``leaves[slot]``, as ``{entry index: node}``.

        Each changed leaf redoes the ORs on its path to the root, one
        per tree level, and a path stops at the first entry that comes
        out unchanged; the apply cache and hash-consing share everything
        else with the old entries.  ``tree`` itself is left as it was.
        """
        size = len(tree) // 2
        changed: Dict[int, int] = {}
        for slot, node in leaves.items():
            if tree[size + slot] != node:
                changed[size + slot] = node
        frontier = sorted(changed)
        while frontier:
            parents = sorted({index >> 1 for index in frontier if index > 1})
            frontier = []
            for index in parents:
                left = changed.get(2 * index, tree[2 * index])
                right = changed.get(2 * index + 1, tree[2 * index + 1])
                node = self.disj(left, right)
                if node != tree[index]:
                    changed[index] = node
                    frontier.append(index)
        return changed

    def compacted(self) -> Tuple["BDD", Dict[int, int]]:
        """``(copy, renumber)``: only the nodes :attr:`tree` reaches.

        The copy keeps the order and the tree, has no apply cache, and
        numbers its nodes bottom-up; ``renumber`` maps each kept node
        id, terminals included, to its id in the copy.
        """
        copy = BDD(self.order)
        renumber = {ZERO: ZERO, ONE: ONE}
        table = copy._nodes
        unique = copy._unique
        for bucket in reversed(self.reachable_by_level(*self.tree)):
            for node in bucket:
                level, low, high = self._nodes[node]
                key = (level, renumber[low], renumber[high])
                renumber[node] = unique[key] = len(table)
                table.append(key)
        copy.tree = [renumber[node] for node in self.tree]
        return copy, renumber

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

    @property
    def nodes(self) -> Sequence[Tuple[int, int, int]]:
        """The node table, read-only: entry ``i`` is internal node
        ``i``'s ``(level, low, high)`` triple (entries ``0`` and ``1``
        stand for the terminals)."""
        return self._nodes

    def reachable_by_level(
        self, *roots: int, known: Container[int] = ()
    ) -> List[List[int]]:
        """Internal nodes reachable from ``roots``, grouped by level.

        Index ``l`` of the result lists the reachable nodes at level
        ``l`` (possibly empty).  Terminals are excluded.  This is the
        delta engine's working set: a bottom-up value table over these
        nodes supports O(levels-above-the-change) re-evaluation.  The
        walk does not enter the nodes in ``known``, so a patched
        session walks only the nodes its table has no value for.
        """
        levels: List[List[int]] = [[] for _ in self.order]
        seen = {ZERO, ONE}
        pending = [root for root in roots if root not in known]
        while pending:
            current = pending.pop()
            if current in seen:
                continue
            seen.add(current)
            level, low, high = self._nodes[current]
            levels[level].append(current)
            if low not in seen and low not in known:
                pending.append(low)
            if high not in seen and high not in known:
                pending.append(high)
        return levels

    def evaluate(self, node: int, assignment: Mapping[Variable, bool]) -> bool:
        while node not in (ZERO, ONE):
            level, low, high = self._nodes[node]
            node = high if assignment[self.order[level]] else low
        return node == ONE

    def value_table(
        self, node: int, probs: Mapping[Variable, Fraction]
    ) -> Tuple[Dict[int, int], List[List[int]], List[int], List[int]]:
        """``(value, levels, numerators, denominators)`` of ``node``.

        The integer value table, evaluated bottom-up: ``value`` maps the
        terminals and every node reachable from ``node`` to an ``int``
        numerator over ``value[ONE]``, the product of the per-level
        ``denominators`` of ``probs``, so the terminals are ``0`` and
        that product.  A node's value depends only on the levels at or
        below its own, so its numerator is a multiple of every
        denominator above it and each division below is exact.
        ``levels`` is :meth:`reachable_by_level`.
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
    dnf: Union[DNF, Sequence[Optional[Clause]]],
    order: Optional[Sequence[Variable]] = None,
) -> Tuple[BDD, int]:
    """Compile a DNF into a ROBDD; returns ``(diagram, root_node)``.

    ``dnf`` is a :class:`DNF` or a sequence of clause slots, ``None``
    standing for a false clause.  Each clause is built directly as a
    chain (:meth:`BDD.cube`), then the clause diagrams are ORed
    pairwise, as a balanced tree kept as :attr:`BDD.tree`, rather than
    folded one by one into a growing root.  The ROBDD is canonical, so
    the reachable diagram is the same either way.

    Every node a compile creates is reachable from the tree entry it
    was created for, so the diagram holds only live nodes; its apply
    cache, scratch of the compile, is dropped.
    """
    if isinstance(dnf, DNF):
        clauses: Sequence[Optional[Clause]] = dnf.clauses
        variables = dnf.variables
    else:
        clauses = dnf
        variables = {
            variable
            for clause in clauses
            if clause is not None and not clause.contradictory
            for variable in clause.variables
        }
    diagram = BDD(
        tuple(order) if order is not None else sorted(variables, key=repr)
    )
    diagram.tree = diagram.or_tree(
        [ZERO if c is None else diagram.cube(c) for c in clauses]
    )
    diagram._apply_cache = {}
    return diagram, diagram.tree[1]


def clause_order(clauses: Iterable[Clause]) -> List[Variable]:
    """The variables of ``clauses``, one connected component at a time.

    Two variables are connected when a clause mentions both.  Components
    come in the order of their first clause; within one, variables come
    by first occurrence in clause order, and within a clause in ``repr``
    order.  This is the order the exact engine compiles in (see the
    module docstring).
    """
    parent: Dict[Variable, Variable] = {}

    def find(variable: Variable) -> Variable:
        while parent[variable] != variable:
            parent[variable] = parent[parent[variable]]
            variable = parent[variable]
        return variable

    for clause in clauses:
        variables = sorted(clause.variables, key=repr)
        for variable in variables:
            parent.setdefault(variable, variable)
        for variable in variables[1:]:
            parent[find(variable)] = find(variables[0])
    components: Dict[Variable, List[Variable]] = {}
    for variable in parent:
        components.setdefault(find(variable), []).append(variable)
    return [v for component in components.values() for v in component]


def compile_exact(dnf: DNF) -> Tuple[BDD, int]:
    """Compile ``dnf`` as the exact engine does: in :func:`clause_order`."""
    return compile_dnf(dnf, order=clause_order(dnf.clauses))


def influences_via_bdd(
    dnf: DNF, probs: Mapping[Variable, Fraction]
) -> Dict[Variable, Fraction]:
    """All Birnbaum influences of a DNF in one compilation + two passes."""
    if dnf.is_true() or dnf.is_false():
        return {v: Fraction(0) for v in dnf.variables}
    diagram, root = compile_exact(dnf)
    return diagram.influences(root, probs)
