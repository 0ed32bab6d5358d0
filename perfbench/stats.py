"""Summary statistics with the benchmark's reporting rules built in."""

from __future__ import annotations

import math
import statistics
from statistics import median  # noqa: F401  (re-exported: the one median in use)
from typing import Iterable, Sequence

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile has fewer samples beyond it than allowed."""


def percentile(samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile that refuses to report a tail it cannot see.

    A percentile estimated from noisy samples is only as good as the
    number of samples above it, so the default demands ``MIN_BEYOND`` of
    them.  Pass ``min_beyond=0`` only for an exactly repeating population
    (simulated times of a fixed statement list), where the value is an
    order statistic, not an estimate.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    ordered = sorted(samples)
    if not ordered:
        raise TooFewSamples("no samples")
    rank = max(math.ceil(q * len(ordered)), 1)
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"{min_beyond} are required"
        )
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geomean of no values")
    return math.exp(sum(logs) / len(logs))


def qerror_geomean(pairs: Iterable[tuple[float, float]]) -> float:
    """Geomean of max(est/act, act/est) over pairs where both are positive;
    0.0 when no pair qualifies (the metric was not measurable)."""
    errors = [max(e / a, a / e) for e, a in pairs if e > 0 and a > 0]
    return geomean(errors) if errors else 0.0


def iqr_share(samples: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread measure the benchmark contract uses."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    return (q3 - q1) / mid if mid else 0.0


def metric_clock(name: str, unit: str) -> str:
    """Which clock a metric is read from, by the naming convention of
    BENCHMARK.json.  ``sim`` covers everything the simulator determines
    exactly: simulated times, counts, shares."""
    timed = unit in ("s", "ms", "us") and "sim_" not in name
    return "host" if timed or "host_" in name or name.startswith("bench.") else "sim"
