"""Summary statistics the benchmark reports: medians, tail percentiles, failure share."""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``pct`` in (0, 100])."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct`` percentile."""
    return count - _rank(count, pct)


def tail_percentile(samples, ladder=PERCENTILE_LADDER) -> tuple[float, float, int] | None:
    """The highest percentile of ``ladder`` with at least ten samples beyond it.

    Returns ``(pct, value, sample_count)``, or ``None`` when even the lowest
    rung has fewer than ten samples beyond it.
    """
    samples = list(samples)
    eligible = [pct for pct in ladder if samples_beyond(len(samples), pct) >= MIN_SAMPLES_BEYOND]
    if not eligible:
        return None
    pct = max(eligible)
    return pct, percentile(samples, pct), len(samples)


def percentile_if_supported(samples, pct: float) -> float | None:
    """``pct``'s value, or ``None`` when fewer than ten samples lie beyond it."""
    samples = list(samples)
    if samples_beyond(len(samples), pct) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(samples, pct)


def median(samples) -> float:
    return statistics.median(samples)


def failure_share(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError(f"invalid counts: attempted={attempted} failed={failed}")
    return failed / attempted if attempted else 0.0
