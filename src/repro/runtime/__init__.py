"""repro.runtime — resilient execution: budgets, preflight, fallback.

The complexity results of the paper draw a hard landscape: exact
reliability is FP^#P-complete (Theorem 4.2), yet existential queries
admit an FPTRAS (Theorem 5.4 / Corollary 5.5).  This subsystem turns
that landscape into an execution policy instead of a crash report:

* :mod:`repro.runtime.budget` — :class:`Budget` / :class:`Deadline`
  with cooperative checkpoints threaded through every engine loop;
* :mod:`repro.runtime.preflight` — closed-form cost estimates
  (``2 ** |atoms|`` worlds, ``|templates| * n ** |vars|`` clauses) that
  refuse hopeless runs up front with
  :class:`~repro.util.errors.CostRefused`;
* :mod:`repro.runtime.executor` — :func:`run_with_fallback`, walking an
  engine chain (safe_lifted → exact → karp_luby → montecarlo by
  default) and returning a :class:`RuntimeResult` with value, engine,
  guarantee type, and the attempt log;
* :mod:`repro.runtime.plan` — the one plan per call: inputs validated,
  cost model, chain order and dichotomy verdict decided once; ``run``
  executes it, ``analyze`` and serve admission forecast it;
* :mod:`repro.runtime.faults` — deterministic fault injection
  (timeout / slowdown / exception) wrapping engine entry points, so
  tests can prove every degradation path fires — plus the
  deterministic virtual-clock :class:`VirtualScheduler` that replays
  serve pool interleavings bit-for-bit.

See ``docs/ROBUSTNESS.md`` for the full story.

Every name but :data:`DEFAULT_CHAIN` loads with its module on first use
(:mod:`repro.util.lazy`): the engines import
:mod:`repro.runtime.budget` for their checkpoints, and the executor
imports the engines — laziness keeps that from being a cycle.
"""

from typing import Tuple

from repro.util.lazy import lazy_exports

#: The executor's default degradation chain, ordered by guarantee
#: strength: statically-routed exact-polynomial > exact >
#: relative/additive FPTRAS > additive MC.  ``safe_lifted`` leads so
#: that a large safe query bypasses the exact engine's ``2 ** atoms``
#: preflight refusal entirely; it is statically skipped (at zero cost)
#: on every other query.  ``lifted`` stays registered for explicit
#: chains.  It lives in the package, so that the CLI parser can print
#: it without importing the executor and every engine with it.
DEFAULT_CHAIN: Tuple[str, ...] = (
    "safe_lifted",
    "exact",
    "karp_luby",
    "montecarlo",
)

lazy_exports(
    __name__,
    {
        ".budget": (
            "DEFAULT_BUDGET", "DEFAULT_MAX_ATOMS", "Budget", "Deadline",
            "active_budget", "apply", "checkpoint", "set_budget",
        ),
        ".preflight": (
            "grounding_cost", "preflight_grounding", "preflight_samples",
            "preflight_worlds", "worlds_cost",
        ),
        ".executor": (
            "run_with_fallback", "RuntimeResult", "Attempt",
            "GUARANTEE_ORDER", "ENGINES",
        ),
        ".faults": (
            "Fault", "TimeoutFault", "SlowdownFault", "ExceptionFault",
            "inject", "VirtualScheduler",
        ),
        ".costmodel": (
            "CostModel", "plan_chain", "plan_features",
        ),
    },
    submodules=("executor", "faults", "costmodel"),
)

__all__ = [
    "Budget",
    "Deadline",
    "DEFAULT_BUDGET",
    "DEFAULT_MAX_ATOMS",
    "active_budget",
    "set_budget",
    "apply",
    "checkpoint",
    "worlds_cost",
    "preflight_worlds",
    "grounding_cost",
    "preflight_grounding",
    "preflight_samples",
    "run_with_fallback",
    "RuntimeResult",
    "Attempt",
    "DEFAULT_CHAIN",
    "GUARANTEE_ORDER",
    "executor",
    "faults",
    "Fault",
    "TimeoutFault",
    "SlowdownFault",
    "ExceptionFault",
    "inject",
    "VirtualScheduler",
    "costmodel",
    "CostModel",
    "plan_chain",
    "plan_features",
]
