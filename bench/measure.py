"""Arithmetic of the end-to-end metrics: percentiles, windowed rates, failure tally."""

from __future__ import annotations

import math
import statistics

# Percentiles a tail metric may use; the highest one with at least
# MIN_BEYOND samples above it is admissible for a given sample count.
LADDER = (50.0, 90.0, 95.0, 99.0)
MIN_BEYOND = 10
KEEP_REASONS = 20  # failure messages printed per run


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """Number of samples strictly above the p-th percentile rank of n samples."""
    return n - math.ceil(n * p / 100.0 - 1e-9)


def tail_percentile(n: int, wanted: float) -> float:
    """`wanted` if at least MIN_BEYOND of n samples lie beyond it, else the
    highest lower percentile of LADDER that has them (50 as the floor)."""
    for p in sorted((q for q in LADDER if q <= wanted), reverse=True):
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return LADDER[0]


def windowed_rate(units, seconds, n_windows: int = 10) -> float:
    """Median over consecutive windows of (work units / busy seconds).

    `units[i]` and `seconds[i]` describe timed item i.  A median over windows
    keeps one stalled stretch of a run from moving the rate.
    """
    n = len(seconds)
    if n == 0:
        raise ValueError("no timed items")
    k = max(1, min(n_windows, n))
    rates = []
    for w in range(k):
        lo, hi = w * n // k, (w + 1) * n // k
        rates.append(sum(units[lo:hi]) / sum(seconds[lo:hi]))
    return statistics.median(rates)


class Tally:
    """Counts attempted operations and failed ones, keeping the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problems) -> None:
        """One operation; it failed when `problems` is non-empty."""
        self.attempted += 1
        problems = list(problems)
        if problems:
            self.failed += 1
            if len(self.reasons) < KEEP_REASONS:
                self.reasons.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
