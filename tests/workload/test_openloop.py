"""Tests for the open-loop traffic engine (arrival schedules, tenants,
AIMD backpressure windows, edge drops)."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.config import CurpConfig, OverloadConfig, ReplicationMode
from repro.harness import TEST_PROFILE, build_cluster
from repro.kvstore.operations import Read
from repro.workload import (
    ConstantRate,
    FlashCrowd,
    KeySetWorkload,
    OpenLoopEngine,
    TenantSpec,
    YcsbWorkload,
)


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def test_schedule_validation():
    with pytest.raises(ValueError):
        ConstantRate(0)
    with pytest.raises(ValueError):
        FlashCrowd(100.0, multiplier=0.5, surge_start=0, surge_end=10)
    with pytest.raises(ValueError):
        FlashCrowd(100.0, multiplier=2, surge_start=10, surge_end=10)


def test_flash_crowd_coerces_float_base():
    schedule = FlashCrowd(5_000.0, multiplier=10.0,
                          surge_start=1_000.0, surge_end=2_000.0)
    assert isinstance(schedule.base, ConstantRate)
    assert schedule.rate_at(0.0) == 5_000.0
    assert schedule.rate_at(1_000.0) == 50_000.0  # start inclusive
    assert schedule.rate_at(1_999.0) == 50_000.0
    assert schedule.rate_at(2_000.0) == 5_000.0  # end exclusive
    assert schedule.peak_rate == 50_000.0


def test_thinning_is_deterministic_per_seed():
    schedule = FlashCrowd(20_000.0, multiplier=4.0,
                          surge_start=1_000.0, surge_end=5_000.0)

    def sample(seed):
        rng = random.Random(seed)
        now, intervals = 0.0, []
        for _ in range(200):
            delta = schedule.next_interval(now, rng)
            assert delta > 0
            intervals.append(delta)
            now += delta
        return intervals

    assert sample(7) == sample(7)
    assert sample(7) != sample(8)


def test_thinning_matches_constant_rate():
    """ConstantRate(r): mean inter-arrival ≈ 1e6/r µs."""
    schedule = ConstantRate(10_000.0)  # => 100 µs mean
    rng = random.Random(42)
    now, n = 0.0, 3_000
    for _ in range(n):
        now += schedule.next_interval(now, rng)
    assert now / n == pytest.approx(100.0, rel=0.1)


def test_thinning_tracks_flash_crowd_rate():
    """Arrivals during the surge come ~multiplier× as fast."""
    schedule = FlashCrowd(2_000.0, multiplier=8.0,
                          surge_start=100_000.0, surge_end=200_000.0)
    rng = random.Random(3)
    now, before, during = 0.0, 0, 0
    while now < 300_000.0:
        now += schedule.next_interval(now, rng)
        if now < 100_000.0:
            before += 1
        elif now < 200_000.0:
            during += 1
    # Equal-length windows: 0.2 ops/µs×100ms vs 1.6 ops/µs×100ms.
    assert during == pytest.approx(8 * before, rel=0.25)


# ----------------------------------------------------------------------
# key-set workloads
# ----------------------------------------------------------------------
def test_keyset_workload_validation():
    with pytest.raises(ValueError):
        KeySetWorkload(name="empty", keys=())
    with pytest.raises(ValueError):
        KeySetWorkload(name="bad", keys=("a",), read_fraction=1.5)


def test_keyset_stream_draws_only_its_keys():
    workload = KeySetWorkload(name="pin", keys=("x", "y"),
                              read_fraction=0.5, value_size=4)
    stream = workload.generator()
    rng = random.Random(0)
    reads = writes = 0
    for _ in range(400):
        op = stream.next_op(rng)
        assert op.key in ("x", "y")
        if isinstance(op, Read):
            reads += 1
        else:
            writes += 1
            assert op.value == "vvvv"
    assert reads > 100 and writes > 100


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
SMALL_PROFILE = dataclasses.replace(TEST_PROFILE, name="openloop-test",
                                    master_workers=1, execute_time=100.0)
#: 1 worker × 100 µs/op = 10k ops/s of execution capacity
CAPACITY = 10_000.0
MIX = YcsbWorkload(name="openloop-mix", read_fraction=0.5, item_count=100,
                   value_size=8)


def engine_config(enabled=False, **overload_overrides):
    overload = OverloadConfig(enabled=enabled, max_queue_depth=8,
                              retry_after=200.0, retry_after_cap=2_000.0,
                              **overload_overrides)
    return CurpConfig(f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
                      idle_sync_delay=200.0, retry_backoff=50.0,
                      rpc_timeout=1_000.0, max_attempts=6,
                      overload=overload)


def build_engine(rate, enabled=False, seed=5, **engine_kwargs):
    cluster = build_cluster(engine_config(enabled), profile=SMALL_PROFILE,
                            seed=seed)
    tenants = [TenantSpec(name="t0", schedule=ConstantRate(rate),
                          workload=MIX, n_clients=4)]
    return cluster, OpenLoopEngine(cluster, tenants, **engine_kwargs)


def test_engine_validation():
    cluster = build_cluster(engine_config(), profile=SMALL_PROFILE)
    with pytest.raises(ValueError):
        OpenLoopEngine(cluster, [])
    spec = TenantSpec(name="dup", schedule=ConstantRate(100.0),
                      workload=MIX)
    with pytest.raises(ValueError):
        OpenLoopEngine(cluster, [spec, spec])
    with pytest.raises(ValueError):
        TenantSpec(name="t", schedule=ConstantRate(1.0), workload=MIX,
                   n_clients=0)


def test_backpressure_defaults_to_overload_switch():
    for enabled in (False, True):
        cluster, engine = build_engine(1_000.0, enabled=enabled)
        assert engine.backpressure is enabled
    # An explicit argument overrides the config.
    cluster, engine = build_engine(1_000.0, enabled=True,
                                   backpressure=False)
    assert engine.backpressure is False


def test_engine_below_saturation_completes_offered_load():
    """At half capacity everything completes; counters reconcile."""
    cluster, engine = build_engine(CAPACITY / 2, enabled=False)
    result = engine.run(duration=40_000.0, warmup=5_000.0)
    engine.drain()
    tenant = result["per_tenant"]["t0"]
    assert result["offered"] > 100
    assert tenant["issued"] == tenant["offered"]  # no window, no queue
    assert result["completed"] >= result["offered"] * 0.9
    assert result["dropped"] == 0
    assert result["goodput"] == pytest.approx(CAPACITY / 2, rel=0.25)
    summary = tenant["latency"]
    assert summary["count"] == tenant["completed"]
    assert summary["median"] <= summary["p99"]


def test_offered_load_is_decoupled_from_completions():
    """The open loop keeps offering past saturation: offered tracks the
    schedule (not the service rate), the excess queues or times out."""
    cluster, engine = build_engine(CAPACITY * 5, enabled=False)
    result = engine.run(duration=30_000.0)
    assert result["offered_per_sec"] == pytest.approx(CAPACITY * 5,
                                                      rel=0.2)
    assert result["completed"] < result["offered"] * 0.5
    tenant = result["per_tenant"]["t0"]
    backlog = (tenant["queued"] + tenant["in_flight"]
               + tenant["failed"] + tenant["completed"])
    assert tenant["issued"] + tenant["queued"] == tenant["offered"]
    assert backlog == tenant["offered"]


def test_backpressure_shrinks_window_under_overload():
    """5× overload with defenses on: pushbacks arrive, the AIMD window
    falls below its cap, and the queue is bounded by edge drops."""
    cluster, engine = build_engine(CAPACITY * 5, enabled=True, seed=9,
                                   max_window=32,
                                   max_queue_wait=5_000.0)
    result = engine.run(duration=40_000.0, warmup=5_000.0)
    tenant = result["per_tenant"]["t0"]
    assert result["pushbacks"] > 0
    assert tenant["window"] is not None
    assert tenant["window"] < 32
    assert tenant["dropped"] > 0  # max_queue_wait sheds stale arrivals
    # Defended goodput stays near capacity despite 5× offered load.
    assert result["goodput"] == pytest.approx(CAPACITY, rel=0.3)


def test_max_queue_wait_none_never_drops():
    cluster, engine = build_engine(CAPACITY * 3, enabled=True,
                                   max_window=16)
    result = engine.run(duration=20_000.0)
    assert result["dropped"] == 0
    assert result["per_tenant"]["t0"]["queued"] > 0


def test_drain_finishes_in_flight_ops():
    cluster, engine = build_engine(CAPACITY, enabled=True, max_window=8)
    engine.run(duration=10_000.0)
    assert engine.drain(timeout=1_000_000.0)
    assert all(t.in_flight == 0 for t in engine.tenants)


def test_warmup_resets_counters():
    cluster, engine = build_engine(CAPACITY / 2)
    result = engine.run(duration=10_000.0, warmup=10_000.0)
    # Roughly duration×rate arrivals — warmup arrivals not included.
    assert result["offered"] == pytest.approx(
        CAPACITY / 2 * 10_000.0 / 1e6, rel=0.3)


def test_engine_is_deterministic_per_seed():
    def measure():
        cluster, engine = build_engine(CAPACITY * 2, enabled=True,
                                       seed=11, max_window=16,
                                       max_queue_wait=4_000.0)
        result = engine.run(duration=25_000.0, warmup=5_000.0)
        tenant = result["per_tenant"]["t0"]
        return (result["offered"], result["completed"], result["failed"],
                result["dropped"], result["pushbacks"], tenant["window"],
                tenant["latency"]["p99"])

    assert measure() == measure()


def test_multi_tenant_results_are_per_tenant():
    cluster = build_cluster(engine_config(True), profile=SMALL_PROFILE,
                            seed=5)
    tenants = [
        TenantSpec(name="a", schedule=ConstantRate(2_000.0),
                   workload=dataclasses.replace(MIX, key_prefix="a/")),
        TenantSpec(name="b", schedule=ConstantRate(4_000.0),
                   workload=dataclasses.replace(MIX, key_prefix="b/")),
    ]
    engine = OpenLoopEngine(cluster, tenants)
    result = engine.run(duration=30_000.0, warmup=5_000.0)
    per = result["per_tenant"]
    assert set(per) == {"a", "b"}
    # Twice the rate, twice the arrivals (both far below capacity).
    assert per["b"]["offered"] == pytest.approx(2 * per["a"]["offered"],
                                                rel=0.25)
    assert result["offered"] == per["a"]["offered"] + per["b"]["offered"]


def test_slo_filter_separates_goodput_from_throughput():
    """Overloaded with no backpressure and a tight SLO: ops complete
    (eventually) but few count as good."""
    cluster, engine = build_engine(CAPACITY * 4, enabled=False,
                                   slo=1_000.0)
    result = engine.run(duration=30_000.0)
    tenant = result["per_tenant"]["t0"]
    assert tenant["completed"] > 0
    assert result["goodput"] < tenant["completed_per_sec"]
