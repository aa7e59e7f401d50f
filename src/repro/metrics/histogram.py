"""Text histograms for latency and cost distributions.

Benches report distributions, not just means; :func:`render_histogram`
produces the classic fixed-width bar chart::

    latency (24 samples, min 8.2, p50 12.4, p95 19.1, max 22.0)
      [  8.2,  11.0) ########## 7
      [ 11.0,  13.8) ############### 10
      ...
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.metrics.stats import percentile


def bucketize(
    values: Sequence[float], buckets: int = 8
) -> List[tuple]:
    """Equal-width buckets over [min, max]; returns (lo, hi, count) rows."""
    if buckets < 1:
        raise ValueError("need at least one bucket")
    if not values:
        return []
    low, high = min(values), max(values)
    if math.isclose(low, high):
        # All samples equal: a [low, high) bucket would be zero-width (and
        # render as an empty range); report one unit-width bucket instead.
        return [(low, low + 1.0, len(values))]
    width = (high - low) / buckets
    counts = [0] * buckets
    for value in values:
        index = min(buckets - 1, int((value - low) / width))
        counts[index] += 1
    return [
        (low + i * width, low + (i + 1) * width, counts[i]) for i in range(buckets)
    ]


def render_histogram(
    values: Sequence[float],
    title: str = "distribution",
    buckets: int = 8,
    width: int = 40,
) -> str:
    """Render values as a labelled text histogram."""
    values = list(values)
    if not values:
        return f"{title} (no samples)"
    header = (
        f"{title} ({len(values)} samples, min {min(values):.1f}, "
        f"p50 {percentile(values, 0.50):.1f}, p95 {percentile(values, 0.95):.1f}, "
        f"max {max(values):.1f})"
    )
    rows = bucketize(values, buckets)
    peak = max(count for _lo, _hi, count in rows) or 1
    lines = [header]
    for low, high, count in rows:
        bar = "#" * max(0, round(count / peak * width))
        lines.append(f"  [{low:7.1f}, {high:7.1f}) {bar} {count}")
    return "\n".join(lines)
