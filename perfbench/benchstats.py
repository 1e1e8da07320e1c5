"""Summary arithmetic of the benchmark (pure Python, no program imports)."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: above it; below that, one outlier more or less moves it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``) of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    above the chosen rank, so a tail percentile is never read off a handful
    of samples.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be within (0, 100), got {q}")
    ranked = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ranked))  # 1-based
    beyond = len(ranked) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ranked)} samples has {max(beyond, 0)} beyond "
            f"it; at least {MIN_BEYOND} are needed")
    return ranked[rank - 1]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geometric mean of no values")
    return math.exp(math.fsum(logs) / len(logs))


def covered_length(lo: float, hi: float,
                   intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping and back-to-back intervals are counted once, and parts
    outside ``[lo, hi]`` not at all.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
