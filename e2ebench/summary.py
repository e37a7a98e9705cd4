"""Summary statistics and failed-operation accounting for the benchmark."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Dict, Sequence

__all__ = [
    "PERCENTILE_LADDER",
    "MIN_TAIL_SAMPLES",
    "OpTally",
    "highest_percentile",
    "median",
    "percentile",
]

#: percentiles a timing may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: a percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below.

    With ``n`` samples exactly ``n - ceil(pct/100 * n)`` samples lie beyond
    the returned rank, which is what :func:`highest_percentile` counts.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the ``pct`` nearest rank."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def highest_percentile(count: int) -> float:
    """The highest ladder percentile with >= 10 samples beyond it.

    Raises when even the median lacks that tail: such a run has too few
    samples for any percentile to be meaningful.
    """
    best = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(count, pct) >= MIN_TAIL_SAMPLES:
            best = pct
    if best is None:
        raise ValueError(
            f"{count} samples leave fewer than {MIN_TAIL_SAMPLES} beyond the "
            "median"
        )
    return best


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


class OpTally:
    """Attempted and failed operations, with the reason for each failure.

    A failure is an exception, a service error, a degraded answer or an
    oracle mismatch; each attempted operation is counted exactly once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1

    def mismatch(self, reason: str) -> None:
        """Re-classify an already counted success as an oracle mismatch."""
        self.failed += 1
        self.reasons[reason] += 1

    @property
    def fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def summary(self) -> Dict[str, int]:
        return dict(self.reasons)
