"""Tests for the baseline config factories and baseline semantics."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.baselines import (
    async_replication_config,
    curp_config,
    primary_backup_config,
    unreplicated_config,
)
from repro.cluster import Coordinator, FailureDetector, Rebalancer
from repro.core.config import (
    CurpConfig,
    OverloadConfig,
    ReplicationMode,
    StorageProfile,
)
from repro.core.master import CurpMaster
from repro.harness import build_cluster
from repro.kvstore import Write


def test_factory_modes():
    assert unreplicated_config().mode is ReplicationMode.UNREPLICATED
    assert primary_backup_config(2).mode is ReplicationMode.SYNC
    assert async_replication_config(1).mode is ReplicationMode.ASYNC
    assert curp_config(3).mode is ReplicationMode.CURP


def test_factory_f_values():
    assert unreplicated_config().f == 0
    assert primary_backup_config(2).f == 2
    assert curp_config(1).f == 1


def test_factories_accept_overrides():
    config = curp_config(3, min_sync_batch=7, rpc_timeout=123.0)
    assert config.min_sync_batch == 7
    assert config.rpc_timeout == 123.0


def test_unreplicated_rejects_nonzero_f():
    with pytest.raises(ValueError):
        unreplicated_config(f=2)


@pytest.mark.parametrize("field, value", [
    ("max_attempts", 0),         # client loops would run zero times
    ("rpc_timeout", 0),
    ("idle_sync_delay", -1),
    ("hot_key_window", -5),
    ("retry_backoff", -1),
    ("gc_stale_threshold", 0),
])
def test_config_rejects_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=field):
        curp_config(3, **{field: value})


def test_settable_config_surface_is_pinned():
    """Every settable value doubles what tests and benches must cover:
    adding (or removing) one is a deliberate edit of this count."""
    counts = {cls.__name__: len(dataclasses.fields(cls))
              for cls in (CurpConfig, OverloadConfig, StorageProfile)}
    assert counts == {"CurpConfig": 11, "OverloadConfig": 5,
                      "StorageProfile": 8}  # 24 in all
    # constructor kwargs after (self, coordinator): the watchdog's three
    # standby pools + 6 tunables, the rebalancer's 5
    kwargs = {cls.__name__: len(inspect.signature(cls.__init__).parameters) - 2
              for cls in (FailureDetector, Rebalancer)}
    assert kwargs == {"FailureDetector": 9, "Rebalancer": 5}


@pytest.mark.parametrize("owner, args, name", [
    (owner, args, name) for owner, args, names in (
        (CurpConfig, (), (
            "witness_slots", "witness_associativity", "rebalance_interval",
            "rebalance_threshold", "rebalance_min_ops",
            "lease_check_interval")),
        (OverloadConfig, (), (
            "min_window", "window_decrease", "window_increase",
            "witness_window", "shed_reads")),
        (FailureDetector, (None, []), (
            "watch_witnesses", "watch_backups", "quarantine_isolate",
            "evidence_window", "probe_slo_multiplier", "probe_slo_cap",
            "probe_ewma_alpha", "flap_base_delay", "flap_max_delay",
            "adaptive_probe_slo", "flap_damping")),
        (build_cluster, (), ("lease_duration",)),
        (Coordinator, (None, None, None), ("lease_duration",)),
        (CurpMaster, (None, "m0", None), ("lease_server",)),
        (CurpConfig, (), ("frame_coalescing",)),
        (StorageProfile, (), (
            "compaction_write_time", "replay_entry_time")),
    ) for name in names])
def test_removed_knob_is_a_type_error(owner, args, name):
    """Removed with no alias or shim: passing one fails at the call, on
    its former owner."""
    with pytest.raises(TypeError, match=name):
        owner(*args, **{name: 1})


def test_sync_baseline_is_durable_before_reply():
    """Primary-backup: by the time the client completes, every backup
    has the update — crash-safety without witnesses."""
    cluster = build_cluster(primary_backup_config(3))
    client = cluster.new_client()
    cluster.run(client.update(Write("k", "v")))
    for backup_name in cluster.backup_hosts["m0"]:
        backup = cluster.coordinator.backup_servers[backup_name]
        assert backup.value_of("k") == "v"


def test_async_baseline_is_not_durable_before_reply():
    cluster = build_cluster(async_replication_config(3, min_sync_batch=50))
    client = cluster.new_client()
    cluster.run(client.update(Write("k", "v")))
    undurable = sum(
        1 for name in cluster.backup_hosts["m0"]
        if cluster.coordinator.backup_servers[name].value_of("k") != "v")
    assert undurable == 3  # acknowledged but nowhere replicated yet


def test_latency_ordering_of_all_systems():
    """unreplicated <= async ~= curp << sync, in the exact-RTT profile."""
    medians = {}
    for name, config in (("unrep", unreplicated_config()),
                         ("async", async_replication_config(3)),
                         ("curp", curp_config(3)),
                         ("sync", primary_backup_config(3))):
        cluster = build_cluster(config)
        client = cluster.new_client()
        outcome = cluster.run(client.update(Write("a", 1)))
        medians[name] = outcome.latency
    assert medians["unrep"] == medians["async"] == medians["curp"] == 4.0
    assert medians["sync"] == 8.0  # exactly one extra RTT
