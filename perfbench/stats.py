"""Summary statistics for the benchmark report, on top of :mod:`statistics`."""

from __future__ import annotations

import statistics
from collections import Counter


def tail_percentile(values, min_beyond: int = 10):
    """(q, value) for the highest of the 99.9th, 99th and 90th percentiles with
    at least ``min_beyond`` samples above it, or None when there are too few."""
    for beyond in (0.001, 0.01, 0.1):
        if len(values) * beyond >= min_beyond:
            cuts = statistics.quantiles(values, n=round(1 / beyond), method="inclusive")
            return round(100.0 * (1.0 - beyond), 1), cuts[-1]
    return None


def tally(records) -> tuple[int, int, Counter]:
    """(attempted, failed, failures per command) of op records with
    ``command`` and ``failure`` (None when the op succeeded) attributes."""
    failures = Counter(r.command for r in records if r.failure is not None)
    return len(records), sum(failures.values()), failures
