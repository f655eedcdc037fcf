"""Tests for latency statistics and distribution series."""

from __future__ import annotations

import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import stats
from repro.metrics import (
    LatencyRecorder,
    ccdf_points,
    cdf_points,
    format_table,
    percentile,
)


def test_percentile_basics():
    samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 100) == 5.0
    assert percentile(samples, 25) == 2.0


def test_percentile_interpolates():
    assert percentile([1.0, 2.0], 50) == 1.5


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_recorder_summary():
    recorder = LatencyRecorder()
    for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
        recorder.record(value)
    summary = recorder.summary()
    assert summary["count"] == 5
    assert summary["median"] == 3.0
    assert summary["mean"] == 3.0
    assert summary["min"] == 1.0 and summary["max"] == 5.0


def test_recorder_rejects_negative():
    with pytest.raises(ValueError):
        LatencyRecorder().record(-1.0)


def test_recorder_reset():
    recorder = LatencyRecorder()
    recorder.record(1.0)
    recorder.reset()
    assert recorder.count == 0
    assert recorder.summary() == {"count": 0}


def test_ccdf_monotone_decreasing():
    samples = [float(i) for i in range(100)]
    points = ccdf_points(samples, points=20)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    assert xs == sorted(xs)
    assert ys == sorted(ys, reverse=True)
    assert ys[0] == 1.0
    assert ys[-1] == pytest.approx(0.01)


def test_cdf_reaches_one():
    points = cdf_points([1.0, 2.0, 3.0], points=3)
    assert points[-1][1] == 1.0


def test_empty_series():
    assert ccdf_points([]) == []
    assert cdf_points([]) == []


def test_format_table_alignment():
    table = format_table(["name", "value"],
                         [["curp", 7.30], ["orig", 13.80]],
                         title="Figure 5")
    lines = table.splitlines()
    assert lines[0] == "Figure 5"
    # lines: title, header, separator, then data rows
    assert "curp" in lines[3] and "7.30" in lines[3]
    assert "orig" in lines[4] and "13.80" in lines[4]


def test_format_table_large_numbers_commafied():
    table = format_table(["tput"], [[728000.0]])
    assert "728,000" in table


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=200))
@settings(max_examples=100)
def test_property_percentile_bounds(samples):
    ordered = sorted(samples)
    for p in (0, 25, 50, 75, 100):
        value = percentile(ordered, p)
        assert ordered[0] <= value <= ordered[-1]


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=200))
@settings(max_examples=50)
def test_property_ccdf_fraction_bounds(samples):
    for _x, y in ccdf_points(samples):
        assert 0.0 < y <= 1.0


#: zeros of both signs, duplicates and subnormals as well as ordinary
#: latencies
_SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, 2.5]),
    st.floats(min_value=0, max_value=1e6))
_PERCENTILES = (0.0, 0.1, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0)


def _bits(reads: dict) -> dict:
    """Floats as hex, so that equal means bit-identical."""
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in reads.items()}


def _reference_reads(samples: list[float], p: float) -> dict:
    """Every order statistic as a plain sorted list gives it."""
    ordered = sorted(samples)

    def at(q: float) -> float:
        return percentile(ordered, q)

    reads = {f"p{q}": at(q) for q in _PERCENTILES + (p,)}
    reads.update(median=at(50.0), p99=at(99.0))
    summary = {"count": len(samples), "median": at(50.0),
               "mean": sum(samples) / len(samples), "p90": at(90.0),
               "p99": at(99.0), "p999": at(99.9), "min": ordered[0],
               "max": ordered[-1]}
    reads.update((f"summary.{name}", value)
                 for name, value in summary.items())
    return _bits(reads)


def _recorder_reads(recorder: LatencyRecorder, p: float) -> dict:
    reads = {f"p{q}": recorder.percentile(q) for q in _PERCENTILES + (p,)}
    reads.update(median=recorder.median, p99=recorder.p99)
    reads.update((f"summary.{name}", value)
                 for name, value in recorder.summary().items())
    return _bits(reads)


_STEP = st.one_of(st.tuples(st.just("record"), _SAMPLE),
                  st.tuples(st.just("read"), st.floats(0.0, 100.0)),
                  st.tuples(st.just("reset"), st.none()))


@given(st.sampled_from([1, 2, 3, 7, 4096]), st.lists(_STEP, max_size=80))
@settings(max_examples=300, deadline=None)
@example(1, [("record", 0.0), ("record", -0.0)])  # a tie across two runs
def test_property_recorder_matches_sorted_list(run, steps):
    """Reads interleaved with further samples and resets, at several
    run lengths (so the view is merged from one run or from many): every
    percentile, the median, p99 and the summary equal what a sorted
    list of the same samples gives, to the bit."""
    recorder = LatencyRecorder()
    samples: list[float] = []
    with mock.patch.object(stats, "_RUN", run):
        for kind, value in steps + [("read", 50.0)]:
            if kind == "record":
                recorder.record(value)
                samples.append(value)
            elif kind == "reset":
                recorder.reset()
                samples.clear()
            elif samples:
                assert (_recorder_reads(recorder, value)
                        == _reference_reads(samples, value))
                assert recorder.samples == samples
                assert list(recorder.sorted_samples()) == sorted(samples)
            else:
                assert recorder.summary() == {"count": 0}
                with pytest.raises(ValueError):
                    recorder.median


def test_recorder_matches_sorted_list_across_many_runs():
    """Ten thousand samples at the real run length: three runs merged."""
    rng = random.Random(7)
    samples = [rng.choice([0.0, 5e-324, rng.random(), float(rng.randrange(9))])
               for _ in range(10_000)]
    recorder = LatencyRecorder()
    for value in samples:
        recorder.record(value)
    assert (_recorder_reads(recorder, 37.5)
            == _reference_reads(samples, 37.5))


def test_recorder_memory_per_sample():
    """100 k samples stay 8 B each (plus the array's headroom), and a
    read builds its sorted view without boxing every sample at once."""
    n = 100_000
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        recorder = LatencyRecorder()
        for i in range(n):
            recorder.record((i * 7919 % n) * 0.25)
        retained, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        recorder.median, recorder.p99
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (retained - before) / n <= 9
    assert (peak - retained) / n <= 20


def test_recorder_read_time():
    recorder = LatencyRecorder()
    for i in range(100_000):
        recorder.record((i * 7919 % 100_000) * 0.25)
    started = time.perf_counter()
    recorder.median, recorder.p99
    assert time.perf_counter() - started <= 0.5
