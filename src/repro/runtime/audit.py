"""Checkpoint coverage audit: no hot loop escapes the budget.

Every engine loop whose trip count scales with the data — worlds
enumerated, samples drawn, clauses grounded — must call
``runtime.checkpoint`` (directly or through a helper) so deadlines and
cost budgets keep their batch-granularity guarantees.  This module
walks the registered engine modules' ASTs and reports every looping
function that neither checkpoints nor appears in the documented
exemption list, so a new kernel cannot silently escape deadlines.

The audit is intentionally syntactic: a function is *compliant* when
its body (excluding nested ``def``s, which are audited separately)
contains a ``checkpoint(...)`` call, or when it calls — transitively,
within the audited modules — a function that does.  Comprehension
loops are ignored: they are bounded by an already-materialised
sequence, and the cost of building that sequence is charged where it
is built.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from typing import Dict, List, Sequence, Set, Tuple

#: Modules whose loops the audit walks — every engine with a loop whose
#: trip count scales with worlds, samples, clauses, or tuples.
ENGINE_MODULES: Tuple[str, ...] = (
    "repro.reliability.exact",
    "repro.reliability.montecarlo",
    "repro.reliability.grounding",
    "repro.reliability.approx",
    "repro.reliability.padding",
    "repro.reliability.lifted",
    "repro.reliability.answers",
    "repro.reliability.absolute",
    "repro.propositional.karp_luby",
    "repro.propositional.counting",
    "repro.propositional.bdd",
    "repro.kernels.sampling",
    "repro.kernels.gray",
    "repro.runtime.adaptive",
    "repro.delta.session",
    "repro.delta.reground",
    "repro.metafinite.reliability",
)

#: Looping functions that deliberately do not checkpoint, with the
#: reason.  Loops here must be bounded by the *query or formula* size
#: (a constant of the problem statement), be per-batch workers of
#: ``kernels.sampling.run_batches``, which charges each batch to the
#: budget before drawing it, consume a generator that charges the
#: budget itself where the audit cannot see it by name, or make one
#: pass over a result that was built under checkpoints.
EXEMPTIONS: Dict[Tuple[str, str], str] = {
    ("repro.kernels.sampling", "draw_columns"): (
        "one column per plan variable; run_batches checkpoints per batch"
    ),
    ("repro.kernels.sampling", "_hamming_diffs"): (
        "per-batch worker; run_batches charges checkpoint(samples=width)"
    ),
    ("repro.kernels.sampling", "clause_counts"): (
        "per-batch worker over the clause split tree, bounded by the "
        "formula; run_batches charges checkpoint(samples=width)"
    ),
    ("repro.kernels.sampling", "hamming_block_moments"): (
        "per-batch worker; run_batches charges checkpoint(samples=width)"
    ),
    ("repro.kernels.sampling", "kl_block_moments"): (
        "per-batch worker; run_batches charges checkpoint(samples=width)"
    ),
    ("repro.kernels.sampling", "sample_layout"): (
        "O(log worst) doubling checks and the batches between them, over "
        "an already-preflighted budget; run_batches charges each batch"
    ),
    ("repro.propositional.karp_luby", "_clause_weights"): (
        "one pass over the DNF clauses, bounded by the formula"
    ),
    ("repro.reliability.grounding", "ClauseTemplate.__init__"): (
        "compiles one clause template, bounded by the query"
    ),
    ("repro.reliability.grounding", "ClauseTemplate.passes"): (
        "one level's literals, bounded by the query's clause width; the "
        "walk that calls it charges every clause"
    ),
    ("repro.reliability.grounding", "ClauseTemplate.ground"): (
        "one clause's levels, bounded by the query; its callers "
        "checkpoint per clause"
    ),
    ("repro.reliability.grounding", "lookup_tables"): (
        "one pass over the error table and the query's relations: "
        "linear in the database the caller decoded"
    ),
    ("repro.delta.reground", "_unify"): (
        "one literal against one atom, bounded by the relation arity"
    ),
    ("repro.delta.session", "_counted"): (
        "reference counting over the nodes a patch added, run when the "
        "update commits (a checkpoint there would half-commit it) or once "
        "over the nodes a build evaluated under checkpoint"
    ),
    ("repro.delta.session", "_release"): (
        "reference counting over the nodes a patch dropped, run when "
        "the update commits: a checkpoint there would half-commit it"
    ),
    ("repro.delta.session", "_rooted"): (
        "commits a patch's value table: its fresh nodes were charged by "
        "_grown, and a checkpoint here would half-commit the update"
    ),

    ("repro.propositional.counting", "_check_probs"): (
        "one validation pass over the formula's variables"
    ),
    ("repro.propositional.bdd", "clause_order"): (
        "union-find over the clauses' variables, bounded by the formula"
    ),
    ("repro.propositional.bdd", "clause_order.find"): (
        "path-halving find, bounded by the formula's variables"
    ),
    ("repro.propositional.bdd", "BDD.cube"): (
        "one clause's literals, bounded by the formula's clause width"
    ),
    ("repro.propositional.bdd", "BDD.reachable_by_level"): (
        "one pass over a built diagram; building it checkpointed"
    ),
    ("repro.propositional.bdd", "BDD.evaluate"): (
        "one root-to-terminal path, bounded by the variable order"
    ),
    ("repro.propositional.bdd", "BDD.value_table"): (
        "one bottom-up pass over a built diagram; building it checkpointed"
    ),
    ("repro.propositional.bdd", "BDD.influences"): (
        "one top-down pass over a built diagram; building it checkpointed"
    ),
    ("repro.propositional.bdd", "BDD.compacted"): (
        "one copy of a built diagram's live nodes; building it checkpointed"
    ),
    ("repro.reliability.padding", "pad_database"): (
        "constant-size loop over the two padding constants"
    ),
    ("repro.reliability.answers", "reliability_from_answers"): (
        "one pass over an answer table the caller already computed"
    ),
    ("repro.reliability.lifted", "is_hierarchical"): (
        "pairwise test over the query's variables, bounded by the query"
    ),
    ("repro.reliability.lifted", "_atom_parts"): (
        "one pass over the query body, bounded by the query"
    ),
    ("repro.metafinite.reliability", "_entries_read"): (
        "one walk of the term tree, bounded by the query"
    ),
    ("repro.metafinite.reliability", "metafinite_expected_error"): (
        "walks db.worlds(), which yields through kernels.gray."
        "enumerated_worlds: that preflights and charges each chunk"
    ),
    ("repro.metafinite.reliability", "_tuple_error"): (
        "Theorem 6.2(i): the joint values of the entries one tuple's "
        "aggregate-free term reads, constantly many for a fixed query; "
        "the tuple loop checkpoints"
    ),
}


class _FunctionInfo:
    __slots__ = ("module", "qualname", "loops", "checkpoints", "calls")

    def __init__(self, module: str, qualname: str):
        self.module = module
        self.qualname = qualname
        self.loops = False
        self.checkpoints = False
        self.calls: Set[str] = set()


def _called_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _collect(module: str, tree: ast.AST) -> List[_FunctionInfo]:
    """Per-function loop/checkpoint/call facts, nested defs separate."""
    functions: List[_FunctionInfo] = []

    def visit_function(node, prefix: str) -> None:
        qualname = f"{prefix}{node.name}"
        info = _FunctionInfo(module, qualname)
        functions.append(info)

        def walk(statements) -> None:
            for child in statements:
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    visit_function(child, f"{qualname}.")
                    continue
                if isinstance(child, ast.ClassDef):
                    visit_class(child, f"{qualname}.")
                    continue
                if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                    info.loops = True
                for call in ast.walk(
                    ast.Module(body=[child], type_ignores=[])
                    if False
                    else child
                ):
                    if isinstance(call, ast.Call):
                        name = _called_name(call)
                        if name == "checkpoint":
                            info.checkpoints = True
                        elif name:
                            info.calls.add(name)
                    if isinstance(
                        call, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        break
                children = [
                    grandchild
                    for grandchild in ast.iter_child_nodes(child)
                    if isinstance(grandchild, ast.stmt)
                ]
                if children:
                    walk(children)

        walk(node.body)

    def visit_class(node: ast.ClassDef, prefix: str) -> None:
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(child, f"{prefix}{node.name}.")
            elif isinstance(child, ast.ClassDef):
                visit_class(child, f"{prefix}{node.name}.")

    for top in ast.iter_child_nodes(tree):
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_function(top, "")
        elif isinstance(top, ast.ClassDef):
            visit_class(top, "")
    return functions


def _module_functions(module_name: str) -> List[_FunctionInfo]:
    module = importlib.import_module(module_name)
    source = inspect.getsource(module)
    return _collect(module_name, ast.parse(source))


def audit_checkpoints(
    modules: Sequence[str] = ENGINE_MODULES,
) -> List[str]:
    """Looping engine functions that neither checkpoint nor are exempt.

    Returns ``"module:qualname"`` strings; an empty list means every
    hot loop is budget-aware.  Compliance propagates one-step-at-a-time
    through the call graph of the audited modules until a fixpoint, so
    a loop that delegates to a checkpointing helper counts.
    """
    functions: List[_FunctionInfo] = []
    for module_name in modules:
        functions.extend(_module_functions(module_name))

    compliant: Set[str] = {
        info.qualname.rsplit(".", 1)[-1]
        for info in functions
        if info.checkpoints
    }
    changed = True
    while changed:
        changed = False
        for info in functions:
            name = info.qualname.rsplit(".", 1)[-1]
            if name in compliant:
                continue
            if info.checkpoints or info.calls & compliant:
                compliant.add(name)
                changed = True

    violations = []
    for info in functions:
        if not info.loops:
            continue
        name = info.qualname.rsplit(".", 1)[-1]
        if info.checkpoints or info.calls & compliant:
            continue
        if (info.module, info.qualname) in EXEMPTIONS:
            continue
        violations.append(f"{info.module}:{info.qualname}")
    return sorted(violations)


def stale_exemptions(
    modules: Sequence[str] = ENGINE_MODULES,
) -> List[str]:
    """Exemption entries that no longer match a function (doc rot guard)."""
    known = set()
    for module_name in modules:
        for info in _module_functions(module_name):
            known.add((info.module, info.qualname))
    return sorted(
        f"{module}:{qualname}"
        for (module, qualname) in EXEMPTIONS
        if (module, qualname) not in known
    )
