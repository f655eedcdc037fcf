"""Crash-recovery tests (§3.3, §4.6): restore + replay, exactly-once,
ordering safety."""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.recovery import RecoveryFailed, recover
from repro.harness import build_cluster
from repro.kvstore import Increment, Write, key_hash


def curp_cluster(**kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0, retry_backoff=10.0,
                    rpc_timeout=100.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults))


def crash_and_recover(cluster, master_id="m0"):
    cluster.master(master_id).host.crash()
    standby = cluster.add_host(f"standby-{cluster.sim.now}", role="master")
    stats = cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master(master_id, standby)),
        timeout=1_000_000.0)
    return cluster.coordinator.masters[master_id].master, stats


def test_unsynced_speculative_writes_recovered_from_witness():
    cluster = curp_cluster()
    client = cluster.new_client()
    for i in range(5):
        outcome = cluster.run(client.update(Write(f"k{i}", i)))
        assert outcome.fast_path
    assert cluster.master().unsynced_count == 5
    new_master, stats = crash_and_recover(cluster)
    assert stats["replayed"] == 5
    assert stats["restored_entries"] == 0
    for i in range(5):
        assert new_master.store.read(f"k{i}") == i
    assert new_master.unsynced_count == 0  # final sync ran


def test_synced_writes_recovered_from_backup_not_reexecuted():
    """Replay of requests already on backups must be RIFL-filtered."""
    cluster = curp_cluster(min_sync_batch=1, idle_sync_delay=50.0)
    client = cluster.new_client()
    cluster.run(client.update(Increment("c", 10)))
    cluster.run(cluster.sim.timeout(30.0))  # synced but NOT yet gc'd?
    cluster.settle(1_000.0)
    # Write again without letting gc finish this time: crash quickly.
    cluster.run(client.update(Increment("c", 10)))  # conflicts → synced
    new_master, stats = crash_and_recover(cluster)
    # Increment must not be applied a third time.
    assert new_master.store.read("c") == 20


def test_mixed_synced_and_unsynced_recovery():
    cluster = curp_cluster(min_sync_batch=3, idle_sync_delay=10_000.0)
    client = cluster.new_client()
    for i in range(3):  # batch of 3 → synced
        cluster.run(client.update(Write(f"s{i}", i)))
    cluster.settle(500.0)
    for i in range(2):  # unsynced stragglers
        cluster.run(client.update(Write(f"u{i}", i * 100)))
    new_master, stats = crash_and_recover(cluster)
    assert stats["restored_entries"] >= 3
    assert stats["replayed"] == 2
    for i in range(3):
        assert new_master.store.read(f"s{i}") == i
    for i in range(2):
        assert new_master.store.read(f"u{i}") == i * 100


def test_witness_freezes_during_recovery():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    new_master, _ = crash_and_recover(cluster)
    # The first witness (used for replay) was re-started by the
    # coordinator for the new master — it must be empty and NORMAL.
    for name in cluster.witness_hosts["m0"]:
        witness = cluster.coordinator.witness_servers[(name, "m0")]
        assert witness.mode == "normal"
        assert witness.cache.occupied_slots() == 0
    # Witness list version bumped so stale clients are rejected.
    assert cluster.coordinator.masters["m0"].witness_list_version == 1


def test_recovery_requires_a_witness():
    """§3.3: with every witness unreachable the recovery must wait
    (fail here), not proceed and silently lose completed updates."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    for name in cluster.witness_hosts["m0"]:
        cluster.network.hosts[name].crash()
    cluster.master().host.crash()
    standby = cluster.add_host("standby", role="master")
    with pytest.raises(RecoveryFailed):
        cluster.run(cluster.sim.process(
            cluster.coordinator.recover_master("m0", standby)),
            timeout=10_000_000.0)


def test_recovery_requires_a_backup():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    for name in cluster.backup_hosts["m0"]:
        cluster.network.hosts[name].crash()
    cluster.master().host.crash()
    standby = cluster.add_host("standby", role="master")
    with pytest.raises(RecoveryFailed):
        cluster.run(cluster.sim.process(
            cluster.coordinator.recover_master("m0", standby)),
            timeout=10_000_000.0)


def test_recovery_survives_one_dead_backup_and_one_dead_witness():
    """f=3 tolerates f failures *of each kind* for recovery: any one
    backup plus any one witness suffices."""
    cluster = curp_cluster()
    client = cluster.new_client()
    for i in range(4):
        cluster.run(client.update(Write(f"k{i}", i)))
    cluster.network.hosts[cluster.backup_hosts["m0"][0]].crash()
    cluster.network.hosts[cluster.witness_hosts["m0"][0]].crash()
    cluster.network.hosts[cluster.witness_hosts["m0"][1]].crash()
    new_master, stats = crash_and_recover(cluster)
    for i in range(4):
        assert new_master.store.read(f"k{i}") == i


def test_zombie_master_cannot_sync_after_fencing():
    """§4.7: a partitioned (not crashed) master is fenced by recovery;
    its later syncs fail and it becomes deposed."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    zombie = cluster.master()
    # Partition the master from clients/coordinator but NOT from
    # backups: it still thinks it is in charge.
    cluster.network.partition("m0-host", "coordinator")
    cluster.network.partition("m0-host", client.host.name)
    standby = cluster.add_host("standby", role="master")
    cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=1_000_000.0)
    # Zombie tries to sync new state — backups reject (FENCED).
    zombie.store.execute(Write("zombie-write", 666))
    done = zombie._request_sync(zombie.store.log.end)
    cluster.run(cluster.sim.timeout(2_000.0))
    assert zombie.deposed
    # The zombie write never reached a backup.
    for name in cluster.backup_hosts["m0"]:
        backup = cluster.coordinator.backup_servers[name]
        assert backup.value_of("zombie-write") is None


def test_replay_filters_keys_not_owned():
    """§3.6: requests for migrated-away partitions recorded on old
    witnesses are ignored during replay."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("mine", 1)))
    cluster.run(client.update(Write("foreign", 2)))
    # Simulate a migration that moved "foreign" away (coordinator's
    # record changes, witness still holds the request).
    h = key_hash("foreign")
    managed = cluster.coordinator.masters["m0"]
    from repro.core.master import _subtract_range
    managed.owned_ranges = _subtract_range(managed.owned_ranges, (h, h + 1))
    new_master, stats = crash_and_recover(cluster)
    assert stats["filtered"] >= 1
    assert new_master.store.read("mine") == 1
    assert new_master.store.read("foreign") is None


def test_completed_op_survives_even_when_synced_and_gced():
    cluster = curp_cluster(min_sync_batch=1, idle_sync_delay=20.0)
    client = cluster.new_client()
    outcomes = [cluster.run(client.update(Write(f"k{i}", i)))
                for i in range(10)]
    cluster.settle(2_000.0)
    new_master, _ = crash_and_recover(cluster)
    for i in range(10):
        assert new_master.store.read(f"k{i}") == i


def test_recover_on_inactive_master_only():
    cluster = curp_cluster()
    master = cluster.master()
    with pytest.raises(RuntimeError):
        cluster.run(cluster.sim.process(
            recover(master, [], [])), timeout=10_000.0)


def test_double_crash_recovery():
    """Recover, write more, crash the recovered master, recover again."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("gen1", 1)))
    crash_and_recover(cluster)
    # client view refresh happens inside update retries
    cluster.run(client.update(Write("gen2", 2)), timeout=1_000_000.0)
    new_master, _ = crash_and_recover(cluster)
    cluster.run(client.update(Write("gen3", 3)), timeout=1_000_000.0)
    final = cluster.coordinator.masters["m0"].master
    assert final.store.read("gen1") == 1
    assert final.store.read("gen2") == 2
    assert final.store.read("gen3") == 3
    assert cluster.coordinator.masters["m0"].epoch == 2
