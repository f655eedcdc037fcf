"""Tests for the cluster coordinator: config, reconfiguration (§3.6),
migration, spares."""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.harness import build_cluster
from repro.kvstore import ConditionalWrite, Write, key_hash


def curp_cluster(**kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0, retry_backoff=10.0,
                    rpc_timeout=100.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults))


def test_view_contains_tablets_and_masters():
    cluster = build_cluster(CurpConfig(f=1, mode=ReplicationMode.CURP),
                            n_masters=2)
    view = cluster.coordinator.current_view()
    assert len(view.tablets) == 2
    assert set(view.masters) == {"m0", "m1"}
    # Every hash resolves to exactly one master.
    for h in (0, 2 ** 63, 2 ** 64 - 1):
        assert view.master_for_hash(h) in {"m0", "m1"}


def test_two_masters_route_by_hash():
    cluster = build_cluster(CurpConfig(f=1, mode=ReplicationMode.CURP),
                            n_masters=2)
    client = cluster.new_client()
    for i in range(10):
        cluster.run(client.update(Write(f"key-{i}", i)))
    m0 = cluster.master("m0").stats.updates
    m1 = cluster.master("m1").stats.updates
    assert m0 + m1 == 10
    assert m0 > 0 and m1 > 0  # hashes spread across both


def test_register_client_allocates_leases():
    cluster = curp_cluster()
    a, b = cluster.new_client(), cluster.new_client()
    assert a.tracker.client_id != b.tracker.client_id
    assert not cluster.coordinator.lease_server.is_expired(
        a.tracker.client_id)


def test_replace_witness_full_flow():
    """§3.6: new witness started, master syncs before adopting, version
    bumped, old witness out of the list."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    assert cluster.master().unsynced_count == 1
    old = cluster.witness_hosts["m0"][1]
    cluster.network.hosts[old].crash()
    spare = cluster.add_host("w-spare", role="witness")
    new_list = cluster.run(cluster.sim.process(
        cluster.coordinator.replace_witness("m0", old, spare)))
    assert "w-spare" in new_list and old not in new_list
    # The master synced before acknowledging the new list.
    assert cluster.master().unsynced_count == 0
    assert cluster.master().witness_list_version == 1
    managed = cluster.coordinator.masters["m0"]
    assert managed.witnesses == new_list
    # And the system keeps acceptng 1-RTT updates with the new witness.
    outcome = cluster.run(client.update(Write("b", 2)))
    assert outcome.fast_path


def test_stale_client_cannot_complete_via_old_witnesses():
    """§3.6 consistency argument: after a witness swap, a client using
    the old list must be bounced (WRONG_WITNESS_VERSION), not allowed
    to complete against decommissioned witnesses."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    old = cluster.witness_hosts["m0"][0]
    spare = cluster.add_host("w-spare", role="witness")
    cluster.run(cluster.sim.process(
        cluster.coordinator.replace_witness("m0", old, spare)))
    # The client still has the version-0 view; its next update must
    # take 2 attempts (error + refreshed retry), never completing with
    # the stale witness set.
    outcome = cluster.run(client.update(Write("b", 2)))
    assert outcome.attempts == 2
    assert client.view.masters["m0"].witness_list_version == 1


def test_replace_backup_brings_newcomer_up_to_date():
    cluster = curp_cluster(min_sync_batch=1, idle_sync_delay=50.0)
    client = cluster.new_client()
    for i in range(5):
        cluster.run(client.update(Write(f"k{i}", i)))
    cluster.settle(1_000.0)
    dead = cluster.backup_hosts["m0"][2]
    cluster.network.hosts[dead].crash()
    spare = cluster.add_host("b-spare", role="backup")
    new_list = cluster.run(cluster.sim.process(
        cluster.coordinator.replace_backup("m0", dead, spare)),
        timeout=1_000_000.0)
    assert "b-spare" in new_list
    newcomer = cluster.coordinator.backup_servers["b-spare"]
    assert newcomer.entry_count() == cluster.master().store.log.end
    # Further writes replicate to the newcomer.
    cluster.run(client.update(Write("after", 9)))
    cluster.settle(1_000.0)
    assert newcomer.value_of("after") == 9


def test_migration_moves_range_and_versions():
    cluster = build_cluster(CurpConfig(
        f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
        idle_sync_delay=200.0, rpc_timeout=100.0), n_masters=2)
    client = cluster.new_client()
    # Find a key owned by m0 and bump its version to 3.
    key = next(f"key-{i}" for i in range(100)
               if cluster.coordinator.current_view().master_for_hash(
                   key_hash(f"key-{i}")) == "m0")
    for value in range(3):
        cluster.run(client.update(Write(key, value)))
    h = key_hash(key)
    moved = cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=1_000_000.0)
    assert moved == 1
    assert cluster.coordinator.current_view().master_for_hash(h) == "m1"
    # The version travelled with the object: CAS against version 3 works.
    outcome = cluster.run(client.update(
        ConditionalWrite(key, "migrated", expected_version=3)))
    assert outcome.result[0] == "OK"
    assert cluster.master("m1").store.read(key) == "migrated"
    # Old master rejects; a client with a stale view just retries.
    assert not cluster.master("m0").owns_hash(h)


def test_migration_resets_source_witnesses():
    """§3.6: witnesses are ruled out of migration — the source syncs
    and resets them before the final step."""
    cluster = build_cluster(CurpConfig(
        f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
        idle_sync_delay=10_000.0, rpc_timeout=100.0), n_masters=2)
    client = cluster.new_client()
    key = next(f"key-{i}" for i in range(100)
               if cluster.coordinator.current_view().master_for_hash(
                   key_hash(f"key-{i}")) == "m0")
    cluster.run(client.update(Write(key, 1)))
    witness = cluster.coordinator.witness_servers[
        cluster.witness_hosts["m0"][0]]
    assert witness.cache.occupied_slots() == 1
    h = key_hash(key)
    cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=1_000_000.0)
    assert witness.cache.occupied_slots() == 0
    assert cluster.coordinator.masters["m0"].witness_list_version == 1
    assert cluster.master("m0").unsynced_count == 0


def test_post_cutover_record_for_migrated_key_rejected():
    """ISSUE 5 regression: a witness record for a migrated key arriving
    at the *old* shard's witness after cutover must be rejected — the
    old master will never execute (so never gc) the op, and the key no
    longer routes there (so the §4.5 suspect path cannot reclaim the
    slot either).  Before the fix the record was silently accepted and
    pinned a slot until stale aging."""
    from repro.core.messages import RECORD_REJECTED, RecordArgs, \
        RecordedRequest
    cluster = build_cluster(CurpConfig(
        f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
        idle_sync_delay=200.0, rpc_timeout=100.0), n_masters=2)
    client = cluster.new_client()
    key = next(f"key-{i}" for i in range(100)
               if cluster.coordinator.current_view().master_for_hash(
                   key_hash(f"key-{i}")) == "m0")
    cluster.run(client.update(Write(key, 1)))
    h = key_hash(key)
    cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=1_000_000.0)
    witness_name = cluster.witness_hosts["m0"][0]
    witness = cluster.coordinator.witness_servers[witness_name]
    assert witness.cache.occupied_slots() == 0

    # A stale-routed client's record for the migrated key lands on the
    # old shard's witness after cutover.
    op = Write(key, "stale-attempt")
    record = RecordArgs(master_id="m0", key_hashes=(h,),
                        rpc_id=("stale-client", 1),
                        request=RecordedRequest(op=op,
                                                rpc_id=("stale-client", 1)))

    def stale_record():
        result = yield cluster.coordinator.transport.call(
            witness_name, "record", record, timeout=1_000.0)
        return result
    assert cluster.run(cluster.sim.process(stale_record())) \
        == RECORD_REJECTED
    assert witness.cache.occupied_slots() == 0
    # Keys m0 still owns keep recording in 1 RTT.
    other = next(f"other-{i}" for i in range(100)
                 if cluster.shard_for(f"other-{i}") == "m0")
    outcome = cluster.run(client.update(Write(other, 2)))
    assert outcome.fast_path


def test_set_ranges_evicts_stragglers_but_keeps_owned_records():
    """The cutover set_ranges must evict records that slipped in for
    migrated keys during the migration window — without clearing
    records for keys the master keeps (those may still back completed
    1-RTT updates)."""
    from repro.core.messages import (
        RECORD_ACCEPTED,
        RecordArgs,
        RecordedRequest,
        SetRangesArgs,
    )
    cluster = curp_cluster()
    witness_name = cluster.witness_hosts["m0"][0]
    witness = cluster.coordinator.witness_servers[witness_name]
    lo, hi = cluster.coordinator.masters["m0"].owned_ranges[0]
    migrated_hash, kept_hash = lo + 5, lo + 9

    def record(h, client_tag):
        op = Write(f"k{h}", 1)
        args = RecordArgs(master_id="m0", key_hashes=(h,),
                          rpc_id=(client_tag, 1),
                          request=RecordedRequest(op=op,
                                                  rpc_id=(client_tag, 1)))
        result = yield cluster.coordinator.transport.call(
            witness_name, "record", args, timeout=1_000.0)
        return result
    assert cluster.run(cluster.sim.process(
        record(migrated_hash, "c1"))) == RECORD_ACCEPTED
    assert cluster.run(cluster.sim.process(
        record(kept_hash, "c2"))) == RECORD_ACCEPTED
    assert witness.cache.occupied_slots() == 2

    # Cutover: [lo, lo+8) migrated away.
    def shrink():
        dropped = yield cluster.coordinator.transport.call(
            witness_name, "set_ranges",
            SetRangesArgs(master_id="m0", owned_ranges=((lo + 8, hi),)),
            timeout=1_000.0)
        return dropped
    assert cluster.run(cluster.sim.process(shrink())) == 1
    assert witness.cache.occupied_slots() == 1
    assert witness.records_evicted == 1
    assert witness.owned_ranges == ((lo + 8, hi),)


def test_migrate_aborted_on_dead_destination_restores_source_ownership():
    """If migrate_out succeeded but the destination never takes the
    objects, the abort path must hand the range back to the source —
    otherwise [lo, hi) is owned by nobody while the map still routes
    there, and clients WRONG_SHARD-loop forever."""
    from repro.core.recovery import RecoveryFailed
    cluster = build_cluster(CurpConfig(
        f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
        idle_sync_delay=200.0, rpc_timeout=100.0, retry_backoff=10.0),
        n_masters=2)
    client = cluster.new_client()
    key = next(f"key-{i}" for i in range(100)
               if cluster.shard_for(f"key-{i}") == "m0")
    cluster.run(client.update(Write(key, 1)))
    h = key_hash(key)
    cluster.network.hosts[cluster.coordinator.masters["m1"].host].crash()
    with pytest.raises(RecoveryFailed):
        cluster.run(cluster.sim.process(
            cluster.coordinator.migrate("m0", "m1", h, h + 1)),
            timeout=50_000_000.0)
    # The source still owns the range — coordinator bookkeeping, the
    # live master, and the routing map all agree — and serves it.
    assert cluster.shard_for(key) == "m0"
    assert cluster.master("m0").owns_hash(h)
    outcome = cluster.run(client.update(Write(key, 2)),
                          timeout=10_000_000.0)
    assert outcome is not None
    assert cluster.run(client.read(key), timeout=10_000_000.0) == 2


def test_migrate_in_is_idempotent_on_coordinator_retry():
    """A lost migrate_in reply makes the coordinator re-send; the
    destination must not grow a duplicate tablet (the shard map rejects
    overlaps)."""
    cluster = build_cluster(CurpConfig(
        f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
        idle_sync_delay=200.0, rpc_timeout=100.0), n_masters=2)
    master = cluster.master("m1")
    lo, hi = cluster.coordinator.masters["m0"].owned_ranges[0]
    cut_lo, cut_hi = lo + 100, lo + 200

    def deliver_twice():
        for _ in range(2):
            result = yield cluster.coordinator.transport.call(
                cluster.coordinator.masters["m1"].host, "migrate_in",
                (cut_lo, cut_hi, ()), timeout=1_000.0)
            assert result == "OK"
    cluster.run(cluster.sim.process(deliver_twice()), timeout=1_000_000.0)
    assert master.owned_ranges.count((cut_lo, cut_hi)) == 1


def test_failure_detector_recovers_crashed_master():
    from repro.cluster import FailureDetector
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    standby = cluster.add_host("fd-standby", role="master")
    detector = FailureDetector(cluster.coordinator, [standby],
                               interval=500.0, miss_threshold=2,
                               ping_timeout=100.0)
    detector.start()
    cluster.master().host.crash()
    cluster.sim.run(until=cluster.sim.now + 50_000.0)
    detector.stop()
    assert detector.recoveries_started == 1
    recovered = cluster.coordinator.masters["m0"].master
    assert recovered.active
    assert recovered.store.read("a") == 1
    # Client transparently continues.
    outcome = cluster.run(client.update(Write("b", 2)),
                          timeout=1_000_000.0)
    assert outcome.result >= 1  # version floor jumps after recovery


def test_failure_detector_does_not_fire_on_healthy_master():
    from repro.cluster import FailureDetector
    cluster = curp_cluster()
    detector = FailureDetector(cluster.coordinator, [], interval=500.0,
                               miss_threshold=2)
    detector.start()
    cluster.sim.run(until=10_000.0)
    detector.stop()
    assert detector.recoveries_started == 0


def test_backup_spare_pool_used_on_recovery():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    spare = cluster.add_host("bspare", role="backup")
    cluster.coordinator.backup_spares.append(spare)
    cluster.network.hosts[cluster.backup_hosts["m0"][0]].crash()
    cluster.master().host.crash()
    standby = cluster.add_host("standby", role="master")
    cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=10_000_000.0)
    managed = cluster.coordinator.masters["m0"]
    assert len(managed.backups) == 3
    assert "bspare" in managed.backups
    assert cluster.coordinator.backup_servers["bspare"].entry_count() \
        == managed.master.store.log.end
