"""The schema-versioned benchmark record: one run, one ``BenchResult``.

Every run of a registered case (:mod:`repro.bench.runner`) produces
one record with the same shape, identified by :data:`SCHEMA_VERSION`:

``schema_version``
    Integer.  Consumers reject versions they do not know;
    :func:`migrate` upgrades older shapes as the schema evolves.
``bench``
    Dotted benchmark id, ``<group>.<name>`` (e.g.
    ``experiments.e1_qf_reliability``).
``workload``
    The declared workload parameters (sizes, sample counts, epsilons
    ...).  ``workload_key`` is a stable digest of this dict — trend
    queries and the regression gate only compare records with equal
    keys, so changing a workload resets its trajectory instead of
    producing bogus regressions.
``environment``
    Fingerprint of where the run happened (Python, platform, CPU
    count); informational, never part of the comparison key.
``methodology``
    How the wall-clock numbers were produced: repeats, warmup runs,
    timer, and the reduction (median/min) applied.
``wall_clock``
    ``seconds`` (the reduced headline number) plus min/max/mean/stdev
    and the raw per-repeat samples.
``metrics``
    The run's :func:`repro.obs.summary` snapshot — engine-internal
    counters, gauges and histograms.
``profile``
    The span-tree profile (:meth:`repro.obs.profile.SpanProfile.to_dict`):
    per-phase count/total/self times.
``extra``
    Benchmark-specific payload (speedups, estimates, agreement flags).
``created_at`` / ``source``
    ISO-8601 UTC timestamp and provenance (``runner`` for the records
    :mod:`repro.bench.runner` produces).

Records travel as JSON objects, one per line, in the append-only
trajectory store (:mod:`repro.bench.history`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

SCHEMA_VERSION = 1

#: Fields every record must carry.
REQUIRED_FIELDS = (
    "schema_version",
    "bench",
    "group",
    "workload",
    "workload_key",
    "environment",
    "methodology",
    "wall_clock",
    "metrics",
    "profile",
    "extra",
    "created_at",
    "source",
)


class SchemaError(ValueError):
    """A record does not conform to the benchmark result schema."""


def workload_key(workload: Dict[str, Any]) -> str:
    """A stable short digest of the workload parameters.

    Canonical JSON (sorted keys, default=str for Fractions and friends)
    hashed to 12 hex characters: enough to distinguish workloads, short
    enough to read in a table.
    """
    canonical = json.dumps(workload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def environment_fingerprint() -> Dict[str, Any]:
    """Where this run happened — informational context for a record."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else None,
    }


def wall_clock_stats(samples: Sequence[float], reduce: str = "median") -> Dict[str, Any]:
    """The wall-clock block from raw per-repeat timings."""
    if not samples:
        raise SchemaError("wall_clock requires at least one timing sample")
    values = [float(value) for value in samples]
    if reduce == "median":
        headline = statistics.median(values)
    elif reduce == "min":
        headline = min(values)
    elif reduce == "mean":
        headline = statistics.fmean(values)
    else:
        raise SchemaError(f"unknown wall_clock reduction {reduce!r}")
    return {
        "seconds": round(headline, 9),
        "min": round(min(values), 9),
        "max": round(max(values), 9),
        "mean": round(statistics.fmean(values), 9),
        "stdev": round(statistics.stdev(values), 9) if len(values) > 1 else 0.0,
        "samples": [round(value, 9) for value in values],
    }


def _utc_now_iso() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclasses.dataclass
class BenchResult:
    """One benchmark run in the versioned schema (see module docstring)."""

    bench: str
    group: str
    workload: Dict[str, Any]
    environment: Dict[str, Any]
    methodology: Dict[str, Any]
    wall_clock: Dict[str, Any]
    metrics: Dict[str, Any] = dataclasses.field(default_factory=dict)
    profile: Dict[str, Any] = dataclasses.field(default_factory=dict)
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)
    created_at: str = dataclasses.field(default_factory=_utc_now_iso)
    source: str = "runner"
    schema_version: int = SCHEMA_VERSION
    workload_key: str = ""

    def __post_init__(self) -> None:
        if not self.workload_key:
            self.workload_key = workload_key(self.workload)

    @property
    def seconds(self) -> float:
        return float(self.wall_clock["seconds"])

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "schema_version": self.schema_version,
            "bench": self.bench,
            "group": self.group,
            "workload": _jsonable(self.workload),
            "workload_key": self.workload_key,
            "environment": _jsonable(self.environment),
            "methodology": _jsonable(self.methodology),
            "wall_clock": _jsonable(self.wall_clock),
            "metrics": _jsonable(self.metrics),
            "profile": _jsonable(self.profile),
            "extra": _jsonable(self.extra),
            "created_at": self.created_at,
            "source": self.source,
        }
        validate(record)
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "BenchResult":
        record = migrate(record)
        validate(record)
        return cls(
            bench=record["bench"],
            group=record["group"],
            workload=record["workload"],
            environment=record["environment"],
            methodology=record["methodology"],
            wall_clock=record["wall_clock"],
            metrics=record["metrics"],
            profile=record["profile"],
            extra=record["extra"],
            created_at=record["created_at"],
            source=record["source"],
            schema_version=record["schema_version"],
            workload_key=record["workload_key"],
        )


def _jsonable(value: Any) -> Any:
    """Coerce a nested structure to JSON-safe types (Fractions → str)."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def validate(record: Dict[str, Any]) -> None:
    """Raise :class:`SchemaError` unless ``record`` is a valid v1 record."""
    if not isinstance(record, dict):
        raise SchemaError(f"record must be a dict, got {type(record).__name__}")
    missing = [field for field in REQUIRED_FIELDS if field not in record]
    if missing:
        raise SchemaError(f"record missing fields: {', '.join(missing)}")
    version = record["schema_version"]
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r} "
            f"(this build understands {SCHEMA_VERSION}); run migrate()"
        )
    if not isinstance(record["bench"], str) or "." not in record["bench"]:
        raise SchemaError(
            f"bench id must be a dotted '<group>.<name>' string, "
            f"got {record['bench']!r}"
        )
    for field in ("workload", "environment", "methodology", "wall_clock",
                  "metrics", "profile", "extra"):
        if not isinstance(record[field], dict):
            raise SchemaError(f"{field} must be a dict")
    wall = record["wall_clock"]
    if "seconds" not in wall:
        raise SchemaError("wall_clock must carry 'seconds'")
    seconds = wall["seconds"]
    if not isinstance(seconds, (int, float)) or seconds < 0:
        raise SchemaError(f"wall_clock.seconds must be >= 0, got {seconds!r}")
    if record["workload_key"] != workload_key(record["workload"]):
        raise SchemaError(
            "workload_key does not match the workload dict "
            f"(expected {workload_key(record['workload'])}, "
            f"found {record['workload_key']})"
        )


def migrate(record: Dict[str, Any]) -> Dict[str, Any]:
    """Upgrade an older record to the current schema version.

    Version 1 is the first schema, so today this only normalises a
    missing ``workload_key`` (recomputed from the workload) and rejects
    versions from the future.  Later schema bumps add their upgrade
    steps here, keeping every historical trajectory readable.
    """
    if not isinstance(record, dict):
        raise SchemaError(f"record must be a dict, got {type(record).__name__}")
    version = record.get("schema_version")
    if version is None:
        raise SchemaError("record has no schema_version")
    if not isinstance(version, int) or version < 1:
        raise SchemaError(f"bad schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise SchemaError(
            f"record schema_version {version} is newer than this build "
            f"understands ({SCHEMA_VERSION})"
        )
    if record.get("workload_key", "") == "" and isinstance(
        record.get("workload"), dict
    ):
        record = dict(record)
        record["workload_key"] = workload_key(record["workload"])
    return record
