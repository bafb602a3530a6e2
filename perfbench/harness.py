"""Arithmetic shared by the benchmark: spans, self time, percentiles, failures.

Everything here is pure and imports nothing from ``frechetforest``, so the
self-tests in ``perfbench/tests`` exercise it without the package.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Mean probe time on the reference machine (2-core Xeon, OpenBLAS 0.3.31,
# Python 3.11, numpy 2.4); it fixes the unit of the calibrated timings.
PROBE_REF_S = 0.016


@dataclass(frozen=True)
class Span:
    """One timed call at a layer boundary."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[s.id] = (s.end - s.start) - _covered(kids)
    return out


def percentile(samples, q: float, min_beyond: int = 10) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    ``min_beyond`` samples lie above it (the tail would be noise)."""
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def median(samples) -> float:
    return float(statistics.median(samples))


def error_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


class Ledger:
    """Counts operations attempted and failed during one benchmark run.

    A CLI call that exits nonzero, a library call that raises and a
    Monte-Carlo repetition listed under ``failures`` each count as one
    failed operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
        return ok

    @property
    def error_frac(self) -> float:
        return error_frac(self.attempted, self.failed)


def probe(rounds: int = 1500) -> float:
    """Seconds for a fixed mix of interpreter work and tiny numpy calls.

    On a shared host the same computation can take up to 1.8x longer while
    neighbours are busy (seen on a 2-core Xeon virtual machine), and the
    slowdown changes within minutes.  Timing this probe between the
    workload's steps measures how fast the machine ran during the run,
    independently of the package.
    """
    a = np.linspace(0.0, 1.0, 16)
    m = np.array([[2.0, 0.1], [0.1, 1.0]])
    acc = 0.0
    start = time.perf_counter()
    for i in range(rounds):
        acc += float((a * (1.0 + i * 1e-9)) @ a)
        acc += float(np.linalg.eigh(m + i * 1e-12)[0][0])
        acc += len(str(i)) + len({"i": i, "acc": acc})
    return time.perf_counter() - start


def speed_factor(probes) -> float:
    """How much slower than the reference the machine ran: the mean probe
    time over ``PROBE_REF_S``.  The mean, not the median, because a step's
    time sums over the fast and slow stretches it spans."""
    return statistics.fmean(probes) / PROBE_REF_S


def iqr_share(values) -> float:
    """Inter-quartile distance of ``values`` as a share of their median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
