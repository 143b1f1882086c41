"""Machine-speed probe: puts every time metric on one reference scale.

On a shared machine the interpreter's speed drifts by tens of percent
over seconds to minutes, for reasons outside the program (neighbours
sharing cores and caches).  Each run therefore times a fixed loop of
benchmark-owned code — the probe — between operations, outside every
timed region, and scales its time metrics by

    (REFERENCE_S / median(probe seconds in this run)) ** exponent

so a time metric reads "milliseconds on a machine where the probe takes
REFERENCE_S".  Each workload sets the exponent of its run and of its
set-up (0: raw): the workloads slow down less than the probe when the
machine does, the more so the more of their time is spent waiting on
the operating system rather than running Python (see NOTES.md).

A slower or faster program moves the scaled metrics exactly as it moves
the raw ones; a slower or faster machine moves the probe too and mostly
cancels out.  The probe never calls the program, so no change to the
program can move it.  The raw values are printed next to the result.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import List

#: The probe's time on the reference machine (a 2-vCPU x86 VM running
#: CPython 3.11).
REFERENCE_S = 0.0005


def probe() -> float:
    """Seconds one fixed loop takes.

    The loop mixes what the workloads spend their time on: exact
    ``Fraction`` arithmetic, big-integer masks, small tuples and dicts,
    and string building.
    """
    started = time.perf_counter()
    total = Fraction(0)
    mask = (1 << 2048) - 1
    table = {}
    for i in range(120):
        total += Fraction(i % 7 + 1, i % 11 + 2)
        word = (mask >> (i % 64)) & mask
        table[(i % 97, "k")] = word.bit_count()
    ",".join(str(value) for value in table.values())
    return time.perf_counter() - started


def burst(samples: List[float], count: int = 10) -> None:
    """Append ``count`` probes to ``samples``."""
    for _ in range(count):
        samples.append(probe())


def scale(samples: List[float], exponent: float) -> float:
    """Factor that turns raw seconds into reference seconds."""
    if not exponent:
        return 1.0
    return (REFERENCE_S / statistics.median(samples)) ** exponent
