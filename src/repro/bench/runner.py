"""Execute registered benchmark cases and produce schema-versioned records.

Methodology, identical for every case:

1. One untimed warmup run (JIT-free Python still benefits: imports,
   memo caches, compiled kernel caches, branch warm-up).
2. ``repeats`` timed runs (one in quick mode).  Each timed run
   executes under a fresh :class:`~repro.obs.recorder.StatsRecorder`
   with an in-memory sink, so every repeat yields the engine-internal
   metrics *and* the span stream of exactly that run.
3. The headline number is the **median** of the repeat wall-clocks
   (robust to a stray scheduler hiccup; min/max/mean/stdev and the raw
   samples are kept in the record).
4. The metrics snapshot and span-tree profile attached to the record
   come from the *median* repeat — the run the headline number
   describes, not an unrepresentative best or worst case.

The case callable receives the merged parameter dict and may return a
dict of benchmark-specific results, recorded under ``extra``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro import obs
from repro.bench.record import (
    BenchResult,
    environment_fingerprint,
    wall_clock_stats,
)
from repro.bench.registry import BenchCase, all_cases, get_case

#: Untimed runs before the timed repeats.
WARMUP = 1
#: Timed runs per case in quick mode.
QUICK_REPEATS = 1


def _median_index(samples: List[float]) -> int:
    """The index of the sample the median headline describes.

    For an even count the median is interpolated; the lower-middle
    sample is the closest real run.
    """
    order = sorted(range(len(samples)), key=lambda i: samples[i])
    return order[(len(samples) - 1) // 2]


def run_case(
    case_or_id,
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
    source: str = "runner",
    progress: Optional[Callable[[str], None]] = None,
) -> BenchResult:
    """Run one registered case and return its :class:`BenchResult`."""
    case: BenchCase = (
        case_or_id if isinstance(case_or_id, BenchCase) else get_case(case_or_id)
    )
    params = case.merged_params(quick)
    if repeats is not None:
        n_repeats = repeats
    else:
        n_repeats = QUICK_REPEATS if quick else case.repeats
    if n_repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {n_repeats}")

    if progress:
        progress(
            f"{case.bench_id}: warmup={WARMUP} repeats={n_repeats}"
            + (" quick" if quick else "")
        )

    for _ in range(WARMUP):
        case.fn(dict(params))

    samples: List[float] = []
    metrics_per_run: List[Dict[str, Any]] = []
    profile_per_run: List[Dict[str, Any]] = []
    extra: Optional[Dict[str, Any]] = None
    for _ in range(n_repeats):
        sink = obs.ListSink()
        recorder = obs.StatsRecorder(sink=sink)
        with obs.use(recorder):
            begin = time.perf_counter()
            result = case.fn(dict(params))
            elapsed = time.perf_counter() - begin
        recorder.close()
        samples.append(elapsed)
        metrics_per_run.append(recorder.summary())
        profile_per_run.append(obs.profile_spans(sink.events).to_dict())
        if isinstance(result, dict):
            extra = result

    pick = _median_index(samples)
    return BenchResult(
        bench=case.bench_id,
        group=case.group,
        workload=params,
        environment=environment_fingerprint(),
        methodology={
            "repeats": n_repeats,
            "warmup": WARMUP,
            "timer": "perf_counter",
            "reduce": "median",
            "quick": bool(quick),
        },
        wall_clock=wall_clock_stats(samples, reduce="median"),
        metrics=metrics_per_run[pick],
        profile=profile_per_run[pick],
        extra=extra or {},
        source=source,
    )


def run_many(
    bench_ids: Optional[Iterable[str]] = None,
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run a set of cases (all registered ones by default), in id order."""
    if bench_ids is not None:
        cases = [get_case(bench_id) for bench_id in bench_ids]
    else:
        cases = all_cases()
    return [
        run_case(case, quick=quick, repeats=repeats, progress=progress)
        for case in cases
    ]
