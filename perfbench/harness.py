"""Pure helpers of the benchmark: percentiles, failure and capacity rules.

Nothing here imports the program under test, so the rules the benchmark
reports by can be unit-tested on their own (``perfbench/test_harness.py``).
"""

from __future__ import annotations

import math
import resource
import statistics
from typing import Dict, Iterable, Optional, Sequence

#: a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10

#: the percentiles a tail may be reported at, highest first
TAIL_QUANTILES = (0.99, 0.95, 0.9, 0.75, 0.5)


def percentile(values: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-quantile (linear interpolation) of ``values``.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie beyond
    the quantile, i.e. ``len(values) * (1 - q) >= min_beyond``: a p99 of 200
    samples is two samples and says nothing about the tail.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = len(values)
    if count == 0:
        raise ValueError("percentile of no samples")
    if count * (1.0 - q) < min_beyond - 1e-9:
        raise ValueError(
            f"p{q * 100:g} needs {math.ceil(min_beyond / (1.0 - q))} samples "
            f"for {min_beyond} beyond it, got {count}")
    ordered = sorted(float(value) for value in values)
    position = q * (count - 1)
    low = int(math.floor(position))
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def blocked_percentile(values: Sequence[float], q: float, block: int,
                       min_beyond: int = MIN_BEYOND) -> float:
    """Median over consecutive ``block``-sized runs of each run's ``q``-quantile.

    A tail that one disturbed second can move (a collector pause, a host
    hiccup) is read per block, and the median block speaks for the stream.
    A trailing partial block is dropped; every block must pass the
    :func:`percentile` guard.
    """
    blocks = [values[start:start + block]
              for start in range(0, len(values) - block + 1, block)]
    if not blocks:
        raise ValueError(f"fewer than one block of {block} samples")
    return median(percentile(chunk, q, min_beyond) for chunk in blocks)


def tail_quantile(count: int, min_beyond: int = MIN_BEYOND) -> float:
    """The highest of :data:`TAIL_QUANTILES` that ``count`` samples support.

    Raises ``ValueError`` when even the median lacks ``min_beyond`` samples.
    """
    for q in TAIL_QUANTILES:
        if count * (1.0 - q) >= min_beyond - 1e-9:
            return q
    raise ValueError(
        f"{count} samples cannot support any reported percentile")


def fail_frac(failed: int, attempted: int) -> float:
    """Failed operations over operations attempted."""
    if attempted < 1:
        raise ValueError("fail_frac needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(
            f"failed ({failed}) must lie in [0, attempted={attempted}]")
    return failed / attempted


def backlog_grows(scheduled: Sequence[float], latencies_ms: Sequence[float],
                  slo_ms: float) -> bool:
    """True when latency climbs across an open-loop cell.

    Splits the cell's queries, in schedule order, into halves and compares
    their median latencies: a stable queue keeps them level, a queue that
    receives more than it serves makes the second half wait longer by more
    than half the latency limit.
    """
    if len(scheduled) != len(latencies_ms):
        raise ValueError("one latency per scheduled send is required")
    if len(scheduled) < 2:
        return False
    ordered = [latency for _, latency in sorted(zip(scheduled, latencies_ms))]
    half = len(ordered) // 2
    first = statistics.median(ordered[:half])
    second = statistics.median(ordered[half:])
    return second - first > 0.5 * slo_ms


def rung_passes(rung: Dict, slo_ms: float) -> bool:
    """The capacity rule for one offered-rate rung.

    A rung passes when its p99 latency is within ``slo_ms``, no query failed
    (wrong answers, raised exceptions and admission rejections all count),
    and its backlog did not grow.
    """
    return (rung["p99_ms"] <= slo_ms and rung["failed"] == 0
            and not rung["backlog_growing"])


def capacity(rungs: Iterable[Dict], slo_ms: float) -> Optional[Dict]:
    """The highest-offered rung that passes :func:`rung_passes`, or None."""
    passing = [rung for rung in rungs if rung_passes(rung, slo_ms)]
    if not passing:
        return None
    return max(passing, key=lambda rung: rung["offered_qps"])


def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

