"""Latency statistics."""

from __future__ import annotations

import heapq
import math
import typing
from array import array

#: samples per sorted run when the sorted view is built: one run is
#: boxed at a time, so a read never holds every sample as a ``float``
_RUN = 4096


def percentile(sorted_samples: typing.Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of pre-sorted samples, p in [0,100]."""
    if not sorted_samples:
        raise ValueError("no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = (p / 100.0) * (len(sorted_samples) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_samples[low]
    frac = rank - low
    base = sorted_samples[low]
    # a + (b-a)*frac rather than a*(1-f)+b*f: the latter underflows to 0
    # for subnormal samples (caught by a hypothesis property test).
    return base + (sorted_samples[high] - base) * frac


class LatencyRecorder:
    """Collects latency samples; answers median/percentile queries.

    Samples are unboxed doubles (8 B each).  Order statistics read one
    sorted ``array('d')`` view, built by merging sorted runs of
    ``_RUN`` samples and cached until the next ``record`` or ``reset``.
    """

    def __init__(self) -> None:
        self._samples = array("d")
        self._sorted: array | None = None

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self._samples.append(latency)
        self._sorted = None

    def reset(self) -> None:
        self._samples = array("d")
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        return self._samples.tolist()

    def sorted_samples(self) -> array:
        if self._sorted is None:
            samples = self._samples
            runs = [array("d", sorted(samples[start:start + _RUN]))
                    for start in range(0, len(samples), _RUN)]
            self._sorted = array("d", heapq.merge(*runs))
        return self._sorted

    def percentile(self, p: float) -> float:
        return percentile(self.sorted_samples(), p)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no samples")
        return sum(self._samples) / len(self._samples)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> dict[str, float]:
        if not self._samples:
            return {"count": 0}
        ordered = self.sorted_samples()
        return {
            "count": self.count,
            "median": self.median,
            "mean": self.mean,
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
            "min": ordered[0],
            "max": ordered[-1],
        }
