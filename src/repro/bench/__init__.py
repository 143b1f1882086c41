"""repro.bench — the unified benchmark harness.

One registry of declarative benchmark cases (:mod:`repro.bench.cases`),
one runner that executes them under the observability layer
(:mod:`repro.bench.runner`), one schema-versioned record per run
(:mod:`repro.bench.record`), an append-only trajectory store
(:mod:`repro.bench.history`) and a robust-band regression gate
(:mod:`repro.bench.compare`).  The ``repro bench`` CLI subcommands are
thin wrappers over these modules.
"""

from __future__ import annotations

from repro.bench.compare import (
    Comparison,
    Verdict,
    compare_against_history,
    compare_records,
    robust_band,
    self_compare,
)
from repro.bench.history import DEFAULT_HISTORY, History
from repro.bench.record import (
    SCHEMA_VERSION,
    BenchResult,
    SchemaError,
    environment_fingerprint,
    migrate,
    validate,
    wall_clock_stats,
    workload_key,
)
from repro.bench.registry import (
    BenchCase,
    UnknownBenchmark,
    all_cases,
    get_case,
    load_cases,
    register,
    register_case,
    unregister,
)
from repro.bench.runner import run_case, run_many

__all__ = [
    "SCHEMA_VERSION",
    "BenchResult",
    "SchemaError",
    "environment_fingerprint",
    "migrate",
    "validate",
    "wall_clock_stats",
    "workload_key",
    "BenchCase",
    "UnknownBenchmark",
    "all_cases",
    "get_case",
    "load_cases",
    "register",
    "register_case",
    "unregister",
    "run_case",
    "run_many",
    "History",
    "DEFAULT_HISTORY",
    "Comparison",
    "Verdict",
    "compare_records",
    "compare_against_history",
    "self_compare",
    "robust_band",
]
