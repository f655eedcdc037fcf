"""Tests for the Zipfian/YCSB workload generators."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.operations import Read, Write
from repro.workload import (
    ScrambledZipfian,
    UniformGenerator,
    YCSB_A,
    YCSB_B,
    YcsbWorkload,
    ZipfianGenerator,
    shard_load_profile,
)
from repro.workload.ycsb import scaled


def test_zipfian_ranks_in_range():
    gen = ZipfianGenerator(1000, theta=0.99)
    rng = random.Random(0)
    for _ in range(5000):
        assert 0 <= gen.next(rng) < 1000


def test_zipfian_is_skewed():
    """θ=0.99 over 1000 items: rank 0 should dominate."""
    gen = ZipfianGenerator(1000, theta=0.99)
    rng = random.Random(1)
    counts = Counter(gen.next(rng) for _ in range(20000))
    top = counts.most_common(1)[0]
    assert top[0] == 0
    assert top[1] > 20000 * 0.05  # far above uniform's 0.1%


def test_zipfian_skew_increases_with_theta():
    rng_a, rng_b = random.Random(2), random.Random(2)
    mild = ZipfianGenerator(1000, theta=0.5)
    sharp = ZipfianGenerator(1000, theta=0.99)
    mild_top = Counter(mild.next(rng_a) for _ in range(10000))[0]
    sharp_top = Counter(sharp.next(rng_b) for _ in range(10000))[0]
    assert sharp_top > mild_top


def test_scrambled_zipfian_spreads_hot_keys():
    gen = ScrambledZipfian(1000, theta=0.99)
    rng = random.Random(3)
    counts = Counter(gen.next(rng) for _ in range(20000))
    hot = counts.most_common(3)
    ids = [key for key, _ in hot]
    # Hot ids are not consecutive ranks.
    assert max(ids) - min(ids) > 5
    # But skew is preserved.
    assert hot[0][1] > 20000 * 0.05


def test_uniform_generator_covers_space():
    gen = UniformGenerator(100)
    rng = random.Random(4)
    seen = {gen.next(rng) for _ in range(5000)}
    assert len(seen) == 100


def test_generator_validation():
    with pytest.raises(ValueError):
        ZipfianGenerator(0)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, theta=1.0)
    with pytest.raises(ValueError):
        UniformGenerator(0)


def test_ycsb_a_mix_ratio():
    stream = scaled(YCSB_A, 1000).generator()
    rng = random.Random(5)
    ops = [stream.next_op(rng) for _ in range(4000)]
    reads = sum(1 for op in ops if isinstance(op, Read))
    assert 0.45 < reads / len(ops) < 0.55


def test_ycsb_b_mix_ratio():
    stream = scaled(YCSB_B, 1000).generator()
    rng = random.Random(6)
    ops = [stream.next_op(rng) for _ in range(4000)]
    reads = sum(1 for op in ops if isinstance(op, Read))
    assert 0.92 < reads / len(ops) < 0.98


def test_value_size_respected():
    workload = YcsbWorkload(name="t", read_fraction=0.0, item_count=10,
                            value_size=100)
    op = workload.generator().next_op(random.Random(0))
    assert isinstance(op, Write)
    assert len(op.value) == 100


def test_workload_validation():
    with pytest.raises(ValueError):
        YcsbWorkload(name="bad", read_fraction=1.5)
    with pytest.raises(ValueError):
        YcsbWorkload(name="bad", read_fraction=0.5, distribution="pareto")


@given(st.integers(2, 5000), st.floats(0.1, 0.999))
@settings(max_examples=50)
def test_property_zipfian_always_in_range(item_count, theta):
    gen = ZipfianGenerator(item_count, theta)
    rng = random.Random(0)
    for _ in range(50):
        assert 0 <= gen.next(rng) < item_count


# ----------------------------------------------------------------------
# the shard-aware harness (ISSUE 5)
# ----------------------------------------------------------------------
def _even_shard_map(n_shards: int):
    from repro.cluster.shard_map import ShardMap
    span = 2 ** 64 // n_shards
    return ShardMap.from_tablets(
        [(i * span, (i + 1) * span if i < n_shards - 1 else 2 ** 64,
          f"m{i}") for i in range(n_shards)])


def test_shard_load_profile_sums_to_one_and_matches_sampling():
    """The closed-form per-shard shares must agree with empirically
    sampled routing of the same workload."""
    from repro.kvstore.hashing import key_hash
    workload = YcsbWorkload(name="t", read_fraction=0.0, item_count=500,
                            theta=0.99)
    shard_map = _even_shard_map(4)
    profile = shard_load_profile(workload, shard_map)
    assert sum(profile.values()) == pytest.approx(1.0)
    assert set(profile) <= {"m0", "m1", "m2", "m3"}
    stream = workload.generator()
    rng = random.Random(9)
    sampled = Counter(
        shard_map.master_for_hash(key_hash(stream.key(rng)))
        for _ in range(40000))
    for shard, share in profile.items():
        assert sampled[shard] / 40000 == pytest.approx(share, abs=0.02)


def test_shard_load_profile_uniform_is_flat():
    workload = YcsbWorkload(name="t", read_fraction=0.0, item_count=2000,
                            distribution="uniform")
    profile = shard_load_profile(workload, _even_shard_map(4))
    for share in profile.values():
        assert share == pytest.approx(0.25, abs=0.05)


def test_run_sharded_ycsb_reports_per_shard_latency():
    """The driver attributes every op to the serving shard and reports
    per-shard percentiles; shares sum to 1 and totals reconcile."""
    from repro.core.config import CurpConfig, ReplicationMode
    from repro.harness import build_cluster
    from repro.workload import run_sharded_ycsb
    cluster = build_cluster(
        CurpConfig(f=1, mode=ReplicationMode.CURP, min_sync_batch=10,
                   idle_sync_delay=100.0, rpc_timeout=150.0),
        n_masters=2, seed=3)
    workload = YcsbWorkload(name="mix", read_fraction=0.5, item_count=200,
                            value_size=16, theta=0.99)
    result = run_sharded_ycsb(cluster, workload, n_clients=4,
                              duration=2_000.0, warmup=200.0)
    assert result["operations"] > 0
    per_shard = result["per_shard"]
    assert set(per_shard) == {"m0", "m1"}
    assert sum(d["operations"] for d in per_shard.values()) \
        == result["operations"]
    assert sum(d["share"] for d in per_shard.values()) == pytest.approx(1.0)
    for detail in per_shard.values():
        summary = detail["write"]
        assert summary["count"] > 0
        assert summary["median"] <= summary["p99"]
        assert detail["read"]["count"] > 0
