"""Measurement utilities: latency recorders, distribution series,
fairness indices, and the ASCII table/figure renderers the benchmarks
print."""

from repro.metrics.stats import LatencyRecorder, percentile
from repro.metrics.series import ccdf_points, cdf_points
from repro.metrics.fairness import bucketed_rates, jain_fairness
from repro.metrics.availability import AvailabilityTracker, availability_report
from repro.metrics.tables import format_table

__all__ = [
    "AvailabilityTracker",
    "LatencyRecorder",
    "availability_report",
    "bucketed_rates",
    "ccdf_points",
    "cdf_points",
    "format_table",
    "jain_fairness",
    "percentile",
]
