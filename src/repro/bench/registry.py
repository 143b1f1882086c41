"""The declarative benchmark registry.

A :class:`BenchCase` is a named, parameterised workload: a callable
plus the declared parameter dict it runs with.  Every ``repro bench``
case is registered here (see :mod:`repro.bench.cases`), so one runner
executes them all and every run is recorded in the same schema.

Each case declares two parameter profiles:

* ``params`` — the full workload, comparable against the recorded
  trajectory of full runs;
* ``quick`` — overrides applied in quick mode (``repro bench run
  --quick``), sized for CI and the test suite.

Because the merged parameter dict *is* the workload metadata recorded
in the :class:`~repro.bench.record.BenchResult`, the trend store keys
full-mode and quick-mode trajectories separately and a parameter
change automatically starts a fresh trajectory.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

from repro.util.errors import ReproError


class UnknownBenchmark(ReproError):
    """Asked for a benchmark id that is not registered."""


@dataclasses.dataclass(frozen=True)
class BenchCase:
    """One registered benchmark: id, workload declaration, runner.

    ``bench_id`` is the dotted ``<group>.<name>`` form; the group is its
    prefix and the description the first line of ``fn``'s docstring.
    """

    bench_id: str
    fn: Callable[[Dict[str, Any]], Optional[Dict[str, Any]]]
    params: Dict[str, Any]
    quick: Dict[str, Any]
    repeats: int = 3

    @property
    def group(self) -> str:
        return self.bench_id.split(".", 1)[0]

    @property
    def description(self) -> str:
        lines = (self.fn.__doc__ or "").strip().splitlines()
        return lines[0] if lines else ""

    def merged_params(self, quick: bool = False) -> Dict[str, Any]:
        """The effective workload parameters for a run."""
        merged = dict(self.params)
        if quick:
            merged.update(self.quick)
            merged["quick"] = True
        return merged


_REGISTRY: Dict[str, BenchCase] = {}
_CASES_LOADED = False


def register(
    bench_id: str,
    *,
    params: Dict[str, Any],
    quick: Optional[Dict[str, Any]] = None,
    repeats: int = 3,
) -> Callable:
    """Decorator: register ``fn`` as the runner of benchmark ``bench_id``.

    ``bench_id`` must be the dotted ``<group>.<name>`` form and unique;
    double registration is an error (it would silently fork a
    trajectory).
    """
    if "." not in bench_id:
        raise ValueError(
            f"bench id must be dotted '<group>.<name>', got {bench_id!r}"
        )

    def decorator(fn: Callable) -> Callable:
        register_case(
            BenchCase(
                bench_id=bench_id,
                fn=fn,
                params=dict(params),
                quick=dict(quick or {}),
                repeats=repeats,
            )
        )
        return fn

    return decorator


def register_case(case: BenchCase) -> BenchCase:
    """Register a prebuilt case (tests and programmatic callers)."""
    if case.bench_id in _REGISTRY:
        raise ValueError(f"benchmark {case.bench_id!r} registered twice")
    _REGISTRY[case.bench_id] = case
    return case


def unregister(bench_id: str) -> None:
    """Remove a case (test isolation only)."""
    _REGISTRY.pop(bench_id, None)


def load_cases() -> None:
    """Import the built-in case declarations exactly once."""
    global _CASES_LOADED
    if not _CASES_LOADED:
        _CASES_LOADED = True
        import repro.bench.cases  # noqa: F401  (registers on import)


def get_case(bench_id: str) -> BenchCase:
    load_cases()
    case = _REGISTRY.get(bench_id)
    if case is None:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise UnknownBenchmark(
            f"unknown benchmark {bench_id!r}; registered: {known}"
        )
    return case


def all_cases() -> List[BenchCase]:
    load_cases()
    return sorted(_REGISTRY.values(), key=lambda case: case.bench_id)
