"""Summary statistics of one run: medians, tail percentiles, throughput."""

from __future__ import annotations

import math
import re
import statistics
from typing import Sequence

#: What a metric name may be made of.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99, 95, 90, 80, 75, 50)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def rank(count: int, pct: float) -> int:
    """1-based nearest-rank position of the ``pct``-th percentile of ``count`` samples."""
    return max(1, math.ceil(pct / 100.0 * count))


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct``-th percentile."""
    return count - rank(count, pct)


def tail_percentile(count: int, beyond: int = TAIL_BEYOND) -> int | None:
    """Highest percentile of :data:`TAIL_LADDER` with ``beyond`` samples above it."""
    for pct in TAIL_LADDER:
        if samples_beyond(count, pct) >= beyond:
            return pct
    return None


def min_samples_for(pct: int, beyond: int = TAIL_BEYOND) -> int:
    """Fewest samples for which ``pct`` has ``beyond`` samples above it."""
    count = beyond + 1
    while samples_beyond(count, pct) < beyond:
        count += 1
    return count


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def throughput(work: Sequence[float], walls: Sequence[float]) -> float:
    """Sum of work over sum of wall time (not a mean of per-operation rates)."""
    total = math.fsum(walls)
    if total <= 0:
        raise ValueError("throughput over no time")
    return math.fsum(work) / total
