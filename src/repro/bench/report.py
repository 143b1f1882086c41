"""Human-readable views over the benchmark trajectory store.

``repro bench report`` renders these: a per-benchmark trend table (one
row per ``(bench, workload_key)`` trajectory with first/last/best
timings and the direction of travel) and a single-benchmark detail view
with the latest run's results (the case's ``extra`` payload) and its
recorded span-tree profile.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from repro.bench.history import History


def _direction(seconds: List[float]) -> str:
    """A coarse trend arrow: latest vs the median of the earlier runs."""
    if len(seconds) < 2:
        return "·"
    earlier = sorted(seconds[:-1])
    median = earlier[len(earlier) // 2]
    if median == 0:
        return "·"
    ratio = seconds[-1] / median
    if ratio <= 0.8:
        return "↓ faster"
    if ratio >= 1.25:
        return "↑ slower"
    return "→ steady"


def trend_table(history: Union[History, str]) -> str:
    """One row per trajectory: runs, first/latest/best seconds, trend."""
    store = history if isinstance(history, History) else History(history)
    groups = store.grouped()
    if not groups:
        return "(empty history)"
    lines = [
        f"{'benchmark':<34} {'key':<13} {'runs':>4} {'first_s':>10} "
        f"{'latest_s':>10} {'best_s':>10}  trend"
    ]
    for (bench, key), records in sorted(groups.items()):
        seconds = [float(r["wall_clock"]["seconds"]) for r in records]
        lines.append(
            f"{bench:<34} {key:<13} {len(records):>4} {seconds[0]:>10.6f} "
            f"{seconds[-1]:>10.6f} {min(seconds):>10.6f}  "
            f"{_direction(seconds)}"
        )
    return "\n".join(lines)


def bench_detail(
    history: Union[History, str],
    bench: str,
    workload_key: Optional[str] = None,
) -> str:
    """The trajectory of one benchmark plus the latest run's results."""
    store = history if isinstance(history, History) else History(history)
    records = store.records_for(bench, workload_key)
    if not records:
        return f"no records for {bench!r}"
    lines = [f"{bench} — {len(records)} recorded run(s)"]
    for record in records:
        wall = record["wall_clock"]
        lines.append(
            f"  {record['created_at']}  {wall['seconds']:>10.6f}s  "
            f"(min {wall['min']:.6f}, max {wall['max']:.6f}, "
            f"source {record['source']}, key {record['workload_key']})"
        )
    latest = records[-1]
    workload = latest.get("workload", {})
    if workload:
        lines.append("workload: " + ", ".join(
            f"{key}={value}" for key, value in sorted(workload.items())
        ))
    extra = latest.get("extra") or {}
    if extra:
        lines.append("latest results:")
        for name, value in sorted(extra.items()):
            lines.append(f"  {name}: {json.dumps(value, sort_keys=True)}")
    phases = latest.get("profile", {}).get("phases") or []
    if phases:
        lines.append("latest span profile (self-time ordered):")
        lines.append(
            f"  {'phase':<32} {'count':>7} {'total_s':>12} {'self_s':>12}"
        )
        for phase in phases:
            lines.append(
                f"  {phase['name']:<32} {phase['count']:>7} "
                f"{phase['total_s']:>12.6f} {phase['self_s']:>12.6f}"
            )
    metrics = latest.get("metrics", {}).get("counters") or {}
    if metrics:
        shown = sorted(metrics.items())[:12]
        lines.append("latest counters: " + ", ".join(
            f"{name}={value}" for name, value in shown
        ))
        if len(metrics) > len(shown):
            lines.append(f"  ... and {len(metrics) - len(shown)} more")
    return "\n".join(lines)
