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
  executes it, ``analyze``/``--race``/serve admission forecast it;
* :mod:`repro.runtime.faults` — deterministic fault injection
  (timeout / slowdown / exception) wrapping engine entry points, so
  tests can prove every degradation path fires — plus the
  deterministic virtual-clock :class:`VirtualScheduler` that replays
  racing interleavings bit-for-bit;
* :mod:`repro.runtime.racing` — speculative engine racing for
  ``run_with_fallback(..., race=...)``: staggered concurrent attempts,
  tier-aware winner selection, loser cancellation through the budget
  checkpoints — the same driver, on a virtual clock with stub
  engines, forecasts a race.

See ``docs/ROBUSTNESS.md`` for the full story.

The executor and fault modules are loaded lazily: the engines import
:mod:`repro.runtime.budget` for their checkpoints, and the executor
imports the engines — laziness keeps that from being a cycle.
"""

from repro.runtime.budget import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_ATOMS,
    Budget,
    Deadline,
    active_budget,
    apply,
    checkpoint,
    set_budget,
)
from repro.runtime.preflight import (
    grounding_cost,
    preflight_grounding,
    preflight_samples,
    preflight_worlds,
    worlds_cost,
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
    # lazily resolved (see __getattr__):
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
    "calibrate",
    "load_or_fallback",
    "racing",
    "ThreadScheduler",
    "use_scheduler",
    "race_sleep",
    "DEFAULT_OVERLAP",
]

_EXECUTOR_NAMES = {
    "run_with_fallback",
    "RuntimeResult",
    "Attempt",
    "DEFAULT_CHAIN",
    "GUARANTEE_ORDER",
    "ENGINES",
}
_FAULT_NAMES = {
    "Fault",
    "TimeoutFault",
    "SlowdownFault",
    "ExceptionFault",
    "inject",
    "VirtualScheduler",
}
_COSTMODEL_NAMES = {
    "CostModel",
    "plan_chain",
    "plan_features",
    "calibrate",
    "load_or_fallback",
}
_RACING_NAMES = {
    "ThreadScheduler",
    "use_scheduler",
    "race_sleep",
    "DEFAULT_OVERLAP",
}


def __getattr__(name):
    # importlib (not a from-import) to avoid re-entering this hook while
    # the submodule attribute is still unset on the package.
    import importlib

    if name in _EXECUTOR_NAMES or name == "executor":
        module = importlib.import_module("repro.runtime.executor")
        return module if name == "executor" else getattr(module, name)
    if name in _FAULT_NAMES or name == "faults":
        module = importlib.import_module("repro.runtime.faults")
        return module if name == "faults" else getattr(module, name)
    if name in _COSTMODEL_NAMES or name == "costmodel":
        module = importlib.import_module("repro.runtime.costmodel")
        return module if name == "costmodel" else getattr(module, name)
    if name in _RACING_NAMES or name == "racing":
        module = importlib.import_module("repro.runtime.racing")
        return module if name == "racing" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
