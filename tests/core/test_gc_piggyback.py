"""Sending-edge gc merge (config.gc_piggyback).

In the Figure 2 colocated deployment a witness shares its host with one
of the master's backups, so per gc flush the shared host used to get
two RPCs from the master: the ``replicate`` and a standalone
``gc_batch``.  With ``gc_piggyback=True`` the master merges the ready
gc chunk into the replicate RPC and counts the avoided RPC in
``MasterStats.gc_rpcs_saved``.
"""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.harness import build_cluster
from repro.kvstore import Write


def piggyback_config(**kwargs) -> CurpConfig:
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=10,
                    idle_sync_delay=200.0, retry_backoff=20.0,
                    rpc_timeout=200.0, max_attempts=50,
                    max_gc_batch=64, gc_flush_delay=300.0,
                    gc_piggyback=True)
    defaults.update(kwargs)
    return CurpConfig(**defaults)


def run_updates(cluster, n: int = 200):
    client = cluster.new_client(collect_outcomes=False)
    for i in range(n):
        cluster.run(client.update(Write(f"k{i}", i)))
    cluster.settle(5_000.0)
    return client


def test_piggyback_requires_batched_gc():
    with pytest.raises(ValueError):
        CurpConfig(gc_piggyback=True, max_gc_batch=0)


def test_colocated_flushes_ride_replicate_rpcs():
    cluster = build_cluster(piggyback_config(), colocate_witnesses=True)
    run_updates(cluster)
    stats = cluster.master().stats
    # Every witness is colocated, so steady-state flushes send zero
    # standalone gc RPCs — only idle-timer leftovers do.
    assert stats.gc_rpcs_saved > 0
    assert stats.gc_rpcs < stats.gc_rpcs_saved
    # All slots were still collected through the merged path.
    for witness in cluster.witness_hosts["m0"]:
        server = cluster.coordinator.witness_servers[witness]
        assert server.cache.occupied_slots() == 0
        assert server.gc_batches_processed > 0


def test_piggyback_saves_rpcs_vs_standalone():
    def gc_rpc_count(piggyback: bool) -> tuple[int, int]:
        cluster = build_cluster(piggyback_config(gc_piggyback=piggyback),
                                colocate_witnesses=True)
        run_updates(cluster)
        stats = cluster.master().stats
        return stats.gc_rpcs, stats.gc_pairs

    plain_rpcs, plain_pairs = gc_rpc_count(False)
    merged_rpcs, merged_pairs = gc_rpc_count(True)
    assert merged_rpcs < plain_rpcs
    # The same pairs get collected either way.
    assert merged_pairs == plain_pairs == 200


def test_non_colocated_witnesses_still_get_standalone_gc():
    """Without colocation there is nothing to merge: piggyback must be
    a no-op (no saved RPCs, normal gc traffic, slots collected)."""
    cluster = build_cluster(piggyback_config(), colocate_witnesses=False)
    run_updates(cluster)
    stats = cluster.master().stats
    assert stats.gc_rpcs_saved == 0
    assert stats.gc_rpcs > 0
    for witness in cluster.witness_hosts["m0"]:
        server = cluster.coordinator.witness_servers[witness]
        assert server.cache.occupied_slots() == 0


def test_piggyback_updates_readable_and_witnesses_drain():
    """The merged path end to end: updates complete, reads observe
    them, witnesses drain."""
    cluster = build_cluster(piggyback_config(), colocate_witnesses=True)
    client = run_updates(cluster, n=120)
    for i in (0, 59, 119):
        assert cluster.run(client.read(f"k{i}")) == i
    assert cluster.master().stats.gc_rpcs_saved > 0
    for witness in cluster.witness_hosts["m0"]:
        server = cluster.coordinator.witness_servers[witness]
        assert server.cache.occupied_slots() == 0
