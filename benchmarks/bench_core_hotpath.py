"""Core hot-path microbenchmarks: events/s, RPC round-trips/s, witness
records/s.

These are the wall-clock numbers every figure benchmark ultimately
rides on; ``tools/bench_snapshot.py`` records them (plus the vendored
pre-overhaul scheduler baseline) into ``BENCH_core.json`` so the perf
trajectory is tracked per PR.  §5.2 of the paper measures ~1.27 M
records/s on the real witness — ``test_witness_record_throughput``
is the comparable for our pure-Python cache.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from benchmarks.hotpath_workloads import (
    drain_events,
    rpc_roundtrips,
    rpc_roundtrips_calibrated,
    rpc_roundtrips_yield,
    schedule_and_drain,
    witness_records,
)
from repro.sim.simulator import Simulator


def test_event_loop_dispatch_throughput(benchmark, scale):
    n = int(400_000 * scale)
    events, elapsed = run_once(
        benchmark, lambda: drain_events(Simulator, n_events=n))
    rate = events / elapsed
    print(f"\nevent loop (dispatch only): {rate / 1e6:.2f} M events/s")
    benchmark.extra_info["events_per_sec"] = rate
    assert rate > 500_000  # sanity floor, far below observed ~6 M/s


def test_event_loop_schedule_dispatch_throughput(benchmark, scale):
    n = int(400_000 * scale)
    events, elapsed = run_once(
        benchmark, lambda: schedule_and_drain(Simulator, n_events=n))
    rate = events / elapsed
    print(f"\nevent loop (schedule+dispatch): {rate / 1e6:.2f} M events/s")
    benchmark.extra_info["events_per_sec"] = rate
    assert rate > 300_000


def test_rpc_roundtrip_throughput(benchmark, scale):
    """The call_cb completion fast path (the canonical hot path)."""
    n = int(20_000 * scale)
    calls, elapsed = run_once(benchmark, lambda: rpc_roundtrips(n_calls=n))
    rate = calls / elapsed
    print(f"\nRPC round trips (call_cb): {rate / 1e3:.1f} k round-trips/s")
    benchmark.extra_info["roundtrips_per_sec"] = rate
    assert rate > 5_000


def test_rpc_roundtrip_throughput_calibrated(benchmark, scale):
    """The same loop with RAMCLOUD_PROFILE's NIC costs and wire: RX
    serialization and the latency sampler are on its path, and a round
    trip is two kernel records — one per message."""
    n = int(20_000 * scale)
    calls, elapsed, events_per_roundtrip = run_once(
        benchmark, lambda: rpc_roundtrips_calibrated(n_calls=n))
    rate = calls / elapsed
    print(f"\nRPC round trips (call_cb, calibrated): "
          f"{rate / 1e3:.1f} k round-trips/s, "
          f"{events_per_roundtrip:.2f} events each")
    benchmark.extra_info["roundtrips_per_sec"] = rate
    benchmark.extra_info["events_per_roundtrip"] = events_per_roundtrip
    assert rate > 5_000
    assert events_per_roundtrip == 2.0


def test_rpc_roundtrip_throughput_yield(benchmark, scale):
    """The generator/event path, for comparison with the fast path."""
    n = int(20_000 * scale)
    calls, elapsed = run_once(benchmark,
                              lambda: rpc_roundtrips_yield(n_calls=n))
    rate = calls / elapsed
    print(f"\nRPC round trips (yield): {rate / 1e3:.1f} k round-trips/s")
    benchmark.extra_info["roundtrips_per_sec"] = rate
    assert rate > 5_000


def test_witness_record_throughput(benchmark, scale):
    n = int(200_000 * scale)
    records, elapsed = run_once(
        benchmark, lambda: witness_records(n_records=n))
    rate = records / elapsed
    print(f"\nwitness cache: {rate / 1e6:.2f} M records/s "
          f"(paper witness: ~1.27 M/s)")
    benchmark.extra_info["records_per_sec"] = rate
    assert rate > 100_000
