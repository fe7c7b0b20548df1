"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(samples) -> dict | None:
    """The highest percentile of ``samples`` with at least MIN_BEYOND
    samples beyond it, as {"percentile", "value", "samples", "beyond"}; None
    when no candidate percentile has that many."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        beyond = math.floor(n * (1.0 - p / 100.0) + 1e-9)
        if beyond >= MIN_BEYOND:
            # nearest-rank percentile: the sample with n - beyond below or at it
            return {"percentile": p, "value": xs[n - beyond - 1],
                    "samples": n, "beyond": beyond}
    return None


def spread(values) -> float | None:
    """Distance between the first and third quartile as a share of the
    median (the rule the run-to-run bounds are set by); None when the median
    is 0."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None
