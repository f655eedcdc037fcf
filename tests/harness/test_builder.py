"""Tests for cluster builders and profiles."""

from __future__ import annotations

import pytest

from repro.baselines import curp_config, unreplicated_config
from repro.core.config import CurpConfig, OverloadConfig, ReplicationMode
from repro.harness import (
    RAMCLOUD_PROFILE,
    REDIS_PROFILE,
    TEST_PROFILE,
    build_cluster,
)
from repro.harness.redis import build_redis_cluster
from repro.kvstore import Write
from repro.redislike.server import DurabilityMode


def test_build_creates_expected_hosts():
    cluster = build_cluster(curp_config(2))
    assert len(cluster.backup_hosts["m0"]) == 2
    assert len(cluster.witness_hosts["m0"]) == 2
    assert "coordinator" in cluster.network.hosts
    assert cluster.master().config.f == 2


def test_build_unreplicated_has_no_backups_or_witnesses():
    cluster = build_cluster(unreplicated_config())
    assert cluster.backup_hosts["m0"] == []
    assert cluster.witness_hosts["m0"] == []


def test_async_mode_has_backups_but_no_witnesses():
    cluster = build_cluster(CurpConfig(f=3, mode=ReplicationMode.ASYNC))
    assert len(cluster.backup_hosts["m0"]) == 3
    assert cluster.witness_hosts["m0"] == []


def test_multiple_masters_partition_the_hash_space():
    cluster = build_cluster(curp_config(1), n_masters=4)
    view = cluster.coordinator.current_view()
    assert len(view.tablets) == 4
    spans = sorted((lo, hi) for lo, hi, _m in view.tablets)
    assert spans[0][0] == 0
    assert spans[-1][1] == 2 ** 64
    for (_, hi_a), (lo_b, _) in zip(spans, spans[1:]):
        assert hi_a == lo_b  # contiguous, no gaps


@pytest.mark.parametrize("n_masters", [0, -1])
def test_cluster_without_masters_rejected(n_masters):
    with pytest.raises(ValueError, match="n_masters must be >= 1"):
        build_cluster(curp_config(1), n_masters=n_masters)


def test_witness_fairness_without_shared_endpoints_rejected():
    """Per-tenant fair admission only exists on a WitnessEndpoint; a
    builder that made plain WitnessServers used to drop it silently."""
    config = curp_config(1)
    config.overload = OverloadConfig(enabled=True, witness_window_records=8)
    with pytest.raises(ValueError, match="witness_window_records.*"
                                         "multi_tenant_witnesses"):
        build_cluster(config)
    build_cluster(config, multi_tenant_witnesses=True)


def test_new_client_connects_and_works():
    cluster = build_cluster(curp_config(1))
    client = cluster.new_client()
    assert client.tracker is not None
    assert client.view is not None
    outcome = cluster.run(client.update(Write("k", 1)))
    assert outcome.result == 1


def test_run_timeout_raises():
    cluster = build_cluster(curp_config(1))
    def forever():
        while True:
            yield cluster.sim.timeout(10.0)
    with pytest.raises(RuntimeError, match="timed out"):
        cluster.run(forever(), timeout=100.0)


def test_profiles_have_sane_shapes():
    for profile in (TEST_PROFILE, RAMCLOUD_PROFILE, REDIS_PROFILE):
        dist = profile.latency()
        sample = dist.sample(__import__("random").Random(0))
        assert sample > 0
    assert RAMCLOUD_PROFILE.master.shared      # dispatch-thread model
    assert REDIS_PROFILE.master.shared         # single-threaded redis
    assert RAMCLOUD_PROFILE.witness_record_time > 0


def test_redis_builder_modes():
    nondurable = build_redis_cluster(DurabilityMode.NONDURABLE)
    assert nondurable.witness_servers == []
    curp = build_redis_cluster(DurabilityMode.CURP, n_witnesses=2)
    assert len(curp.witness_servers) == 2
    assert all(w.master_id == "redis:redis-server"
               for w in curp.witness_servers)


def test_deterministic_same_seed():
    def run(seed):
        cluster = build_cluster(curp_config(3),
                                profile=RAMCLOUD_PROFILE, seed=seed)
        client = cluster.new_client()
        latencies = []
        def script():
            for i in range(20):
                outcome = yield from client.update(Write(f"k{i}", i))
                latencies.append(outcome.latency)
        cluster.run(cluster.sim.process(script()))
        return latencies
    assert run(5) == run(5)
    assert run(5) != run(6)
