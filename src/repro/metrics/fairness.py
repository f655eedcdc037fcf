"""Fairness and time-series helpers for multi-tenant overload studies.

Jain's index (Jain, Chiu & Hawe 1984) summarizes how evenly a resource
was shared: (Σx)² / (n·Σx²) is 1.0 when every tenant got the same
amount and 1/n when one tenant got everything.  ``bucketed_rates``
turns an open-loop run's completion stream into a goodput-over-time
curve.
"""

from __future__ import annotations

import typing


def jain_fairness(values: typing.Sequence[float]) -> float:
    """Jain's fairness index over per-tenant allocations, in (0, 1].

    1.0 = perfectly even; 1/n = maximally unfair.  Empty input and
    all-zero allocations degenerate to 1.0 (nothing was shared
    unevenly because nothing was shared).
    """
    values = list(values)
    if not values:
        return 1.0
    if any(v < 0 for v in values):
        raise ValueError("allocations must be non-negative")
    total = sum(values)
    if total == 0:
        return 1.0
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares)


def bucketed_rates(events: typing.Sequence[tuple[float, float]],
                   bucket: float, start: float,
                   end: float) -> list[tuple[float, float]]:
    """Events/s per time bucket: [(bucket_start, rate), ...].

    ``events`` is a sequence of (time, _) pairs (the second element is
    ignored — pass an :class:`~repro.workload.openloop.OpenLoopEngine`
    completion timeline directly); times in µs, rates in events/s.
    Buckets cover [start, end); empty buckets report 0.0.
    """
    if bucket <= 0:
        raise ValueError(f"bucket must be > 0: {bucket}")
    n_buckets = max(1, int((end - start) / bucket + 0.5))
    counts = [0] * n_buckets
    for t, _ in events:
        index = int((t - start) / bucket)
        if 0 <= index < n_buckets:
            counts[index] += 1
    seconds = bucket / 1e6
    return [(start + i * bucket, counts[i] / seconds)
            for i in range(n_buckets)]

