"""Summary statistics shared by the benchmark and its self-tests.

Standard library only: the orchestrator imports this without numpy.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: a percentile is reported only with at least this many samples above it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p``-th percentile
    (rank-based: the top ``n * (1 - p/100)`` samples, rounded down)."""
    return int(n * (100.0 - p) / 100.0 + 1e-9)


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it, as ``(p, value, sample_count)``; None when even the
    median lacks that support (fewer than 20 samples)."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p, percentile(samples, p), n
    return None


def supported(n: int, p: float) -> bool:
    """True when ``n`` samples carry the ``p``-th percentile by the rule."""
    return samples_beyond(n, p) >= MIN_BEYOND


def variant_mean(by_variant: Dict[int, List[float]]) -> float:
    """Mean over input variants of each variant's median.

    Every variant weighs the same however many cycles it got, so a run's
    figure does not depend on where the clock stopped the cycle loop.
    """
    meds = [statistics.median(v) for _k, v in sorted(by_variant.items()) if v]
    if not meds:
        raise ValueError("no samples")
    return sum(meds) / len(meds)


def group(pairs: Iterable[Tuple[int, float]]) -> Dict[int, List[float]]:
    """``[(variant, value), ...]`` -> ``{variant: [values]}``."""
    out: Dict[int, List[float]] = {}
    for k, v in pairs:
        out.setdefault(k, []).append(v)
    return out
