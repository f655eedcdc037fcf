"""Partitioned fast recovery (ISSUE 7): a dead master's tablets split
across surviving masters, each backup scanning one stripe of the log,
witness replay riding on top — plus the failure paths: no backups, no
witnesses, backups dying mid-read, and recovery racing the rebalancer.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import CurpConfig, ReplicationMode, StorageProfile
from repro.core.messages import RecordedRequest, UpdateArgs
from repro.core.recovery import RecoveryFailed, plan_partitions
from repro.harness import build_cluster
from repro.kvstore import Increment, MultiWrite, Write, key_hash
from repro.rifl import RpcId
from repro.rpc import RpcTransport


def storage_profile(**overrides) -> StorageProfile:
    defaults = dict(enabled=True, segment_size=16, append_time=0.5,
                    rotation_time=5.0, read_entry_time=0.3)
    defaults.update(overrides)
    return StorageProfile(**defaults)


def partitioned_cluster(n_masters=3, storage=None, seed=0, **kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=8,
                    idle_sync_delay=100.0, retry_backoff=10.0,
                    rpc_timeout=2_000.0)
    defaults.update(kwargs)
    if storage is not None:
        defaults["storage"] = storage
    return build_cluster(CurpConfig(**defaults), n_masters=n_masters,
                         seed=seed)


def keys_on(cluster, master_id, count, tag="k"):
    ranges = cluster.coordinator.masters[master_id].owned_ranges
    keys, i = [], 0
    while len(keys) < count:
        key = f"{tag}{i}"
        i += 1
        if any(lo <= key_hash(key) < hi for lo, hi in ranges):
            keys.append(key)
    return keys


def load_master(cluster, master_id, count, unsynced=0):
    """``count`` synced writes + ``unsynced`` speculative stragglers."""
    client = cluster.new_client()
    keys = keys_on(cluster, master_id, count + unsynced)
    for i, key in enumerate(keys[:count]):
        cluster.run(client.update(Write(key, i)), timeout=10_000_000.0)
    cluster.settle(2_000.0)
    for i, key in enumerate(keys[count:]):
        cluster.run(client.update(Write(key, f"spec{i}")),
                    timeout=10_000_000.0)
    return keys


def run_recovery(cluster, master_id, recovery_masters):
    cluster.master(master_id).host.crash()
    return cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master_partitioned(
            master_id, recovery_masters)),
        timeout=50_000_000.0)


def assert_all_readable(cluster, keys):
    reader = cluster.new_client()
    for key in keys:
        value = cluster.run(reader.read(key), timeout=10_000_000.0)
        assert value is not None, f"{key} lost in recovery"


# ---------------------------------------------------------------------------
# the happy path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_partitioned_recovery_spreads_tablets(seed):
    cluster = partitioned_cluster(storage=storage_profile(), seed=seed)
    keys = load_master(cluster, "m0", 30, unsynced=3)
    stats = run_recovery(cluster, "m0", ["m1", "m2"])
    assert stats["partitions"] == 2
    assert stats["witness_requests"] >= 3
    assert sum(s["replayed"] for s in stats["absorbed"].values()) == 3
    assert sum(s["installed"] for s in stats["absorbed"].values()) == 30
    # the dead master is gone and its span is a partition of m1 + m2
    assert "m0" not in cluster.coordinator.masters
    assert cluster.shard_map.covers_full_range()
    assert {cluster.shard_for(k) for k in keys} <= {"m1", "m2"}
    assert_all_readable(cluster, keys)


def test_recovery_masters_absorb_onto_own_backups():
    """The re-replication half: absorbed data survives a *second* crash
    of the recovery master itself (classic single-target recovery)."""
    cluster = partitioned_cluster(storage=storage_profile())
    keys = load_master(cluster, "m0", 12, unsynced=2)
    run_recovery(cluster, "m0", ["m1"])
    cluster.master("m1").host.crash()
    standby = cluster.add_host("standby", role="master")
    cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m1", standby)),
        timeout=50_000_000.0)
    assert_all_readable(cluster, keys)


def test_completion_record_survives_partitioned_then_whole_recovery():
    """An Increment m0 completed and synced, whose reply was lost: m0 is
    recovered onto m1 by partition, then m1 crashes and is recovered
    whole.  The RpcId rode in m1's own log entry, so the retry is
    answered 11 from the rebuilt completion record, not executed again."""
    cluster = partitioned_cluster(n_masters=2)
    client = cluster.new_client()
    key, = keys_on(cluster, "m0", 1)
    cluster.run(client.update(Write(key, 10)), timeout=10_000_000.0)
    raw = RpcTransport(cluster.network.add_host("raw"))
    rpc_id = RpcId(99, 1)

    def send(master_id):
        managed = cluster.coordinator.masters[master_id]
        reply = cluster.run(raw.call(
            managed.host, "update",
            UpdateArgs(Increment(key, 1), rpc_id, 1,
                       managed.witness_list_version), timeout=10_000.0))
        return reply.result
    assert send("m0") == 11  # the reply the client lost
    cluster.settle(2_000.0)
    run_recovery(cluster, "m0", ["m1"])
    cluster.master("m1").host.crash()
    standby = cluster.add_host("standby", role="master")
    cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m1", standby)),
        timeout=50_000_000.0)
    assert send("m1") == 11
    assert cluster.master("m1").store.read(key) == 11


def test_disabled_profile_runs_are_identical():
    """Storage knobs must be inert while ``enabled`` is False: same
    virtual end time, same event count as a default-config run."""
    results = []
    for storage in (None, StorageProfile(enabled=False, segment_size=4,
                                         append_time=9.0, rotation_time=99.0,
                                         read_entry_time=9.0,
                                         compaction_interval=50.0)):
        config = CurpConfig(f=3, mode=ReplicationMode.CURP, min_sync_batch=8,
                            idle_sync_delay=100.0)
        if storage is not None:
            config = dataclasses.replace(config, storage=storage)
        cluster = build_cluster(config, seed=5)
        client = cluster.new_client()
        for i in range(20):
            cluster.run(client.update(Write(f"k{i}", i)))
        cluster.settle(2_000.0)
        results.append((cluster.sim.now, cluster.sim.processed_events))
    assert results[0] == results[1]


def test_enabled_profile_charges_backup_disks():
    cluster = partitioned_cluster(n_masters=1, storage=storage_profile())
    load_master(cluster, "m0", 40)
    backups = [cluster.coordinator.backup_servers[name]
               for name in cluster.backup_hosts["m0"]]
    for backup in backups:
        assert backup.host.disk.busy_time > 0
        assert backup.stats.entries_appended == 40
        assert backup.stats.segments_sealed == 40 // 16
    # the deferred-ack path still drains: everything is synced
    assert cluster.master("m0").unsynced_count == 0


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------

def test_recovery_failed_when_no_backup_reachable():
    cluster = partitioned_cluster()
    load_master(cluster, "m0", 5)
    for name in cluster.backup_hosts["m0"]:
        cluster.network.hosts[name].crash()
    with pytest.raises(RecoveryFailed, match="fence"):
        run_recovery(cluster, "m0", ["m1"])
    # the failed attempt left the entry retryable
    assert not cluster.coordinator.masters["m0"].recovering


def test_recovery_failed_when_no_witness_reachable():
    cluster = partitioned_cluster()
    load_master(cluster, "m0", 5)
    for name in cluster.witness_hosts["m0"]:
        cluster.network.hosts[name].crash()
    with pytest.raises(RecoveryFailed, match="witness"):
        run_recovery(cluster, "m0", ["m1", "m2"])


def test_backup_crash_mid_recovery_retries_stripe_on_survivors():
    """A backup dying between fencing and its stripe read must not sink
    recovery: the window is re-read from a surviving backup."""
    cluster = partitioned_cluster(storage=storage_profile(),
                                  rpc_timeout=300.0)
    keys = load_master(cluster, "m0", 30, unsynced=2)
    victim = cluster.network.hosts[cluster.backup_hosts["m0"][0]]

    def assassin():
        # Fencing + witness harvest take a few round trips; the stripe
        # reads behind the victim's disk are still in flight at t+12.
        yield cluster.sim.timeout(12.0)
        victim.crash()

    cluster.master("m0").host.crash()
    cluster.sim.process(assassin())
    stats = cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master_partitioned(
            "m0", ["m1", "m2"])),
        timeout=50_000_000.0)
    assert stats["partitions"] == 2
    assert_all_readable(cluster, keys)


def test_slow_disk_recovery_reads_each_stripe_once():
    """Regression (docs/STORAGE.md caveat): a stripe reply gated on a
    slow disk used to outlive ``rpc_timeout``; the retry then
    *re-charged* the disk, snowballing into a storm that read every
    stripe many times over (or sank recovery outright once the backup
    pool drained).  The stripe-read deadline is now derived from the
    modeled disk service time, so a network-sized ``rpc_timeout`` far
    below the scan cost still reads each stripe exactly once."""
    def total_reads(rpc_timeout):
        cluster = partitioned_cluster(
            storage=storage_profile(read_entry_time=50.0),
            rpc_timeout=rpc_timeout)
        keys = load_master(cluster, "m0", 40, unsynced=2)
        backups = [cluster.coordinator.backup_servers[name]
                   for name in cluster.backup_hosts["m0"]]
        stats = run_recovery(cluster, "m0", ["m1", "m2"])
        assert stats["partitions"] == 2
        assert_all_readable(cluster, keys)
        return sum(b.stats.recovery_entries_read for b in backups)

    generous = total_reads(1_000_000.0)
    assert generous > 0
    # 500 µs of network budget vs ~thousands of µs of scan per stripe:
    # the derived deadline must cover the disk, and the entry-read
    # totals must match the known-good generous-timeout run exactly —
    # any duplicate stripe read shows up as extra entries.
    assert total_reads(500.0) == generous


def test_whole_log_recovery_on_slow_disk_reads_the_log_once():
    """Regression: a whole-log ``get_backup_data`` reply waits on a
    60 × 50 µs disk scan, longer than ``rpc_timeout``.  Its deadline is
    now derived from the backup's segment index, so one backup serves
    it once; a fixed deadline charged every backup a whole-log scan
    and then failed with no answer."""
    cluster = partitioned_cluster(
        n_masters=1, storage=storage_profile(read_entry_time=50.0))
    keys = load_master(cluster, "m0", 60)
    backups = [cluster.coordinator.backup_servers[name]
               for name in cluster.backup_hosts["m0"]]
    cluster.master("m0").host.crash()
    standby = cluster.add_host("standby", role="master")
    stats = cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=50_000_000.0)
    assert stats["restored_entries"] == 60
    assert sum(b.stats.recovery_entries_read for b in backups) == 60
    assert_all_readable(cluster, keys)


def test_partitioned_recovery_of_reference_volume_absorbs_once():
    """Regression: benchmarks/bench_recovery.py's reference cluster
    (2,000 synced entries on m0) recovered onto one master.  The absorb
    reply waits on replay plus re-replication of every entry; its
    deadline is derived from both, so one ``absorb_partition`` lands
    where a fixed deadline timed out on every attempt."""
    storage = StorageProfile(enabled=True, segment_size=64, append_time=0.5,
                             rotation_time=20.0, read_entry_time=0.3)
    cluster = partitioned_cluster(n_masters=5, storage=storage, seed=7,
                                  min_sync_batch=16, retry_backoff=20.0,
                                  rpc_timeout=5_000.0)
    load_master(cluster, "m0", 2_000)
    absorbs = []

    def tap(message):
        if getattr(message.payload, "method", None) == "absorb_partition":
            absorbs.append(message)
    cluster.network.taps.append(tap)
    stats = run_recovery(cluster, "m0", ["m1"])
    assert stats["absorbed"]["m1"]["installed"] == 2_000
    assert len(absorbs) == 1


def test_concurrent_recovery_attempts_rejected():
    cluster = partitioned_cluster(storage=storage_profile())
    load_master(cluster, "m0", 20)
    cluster.master("m0").host.crash()
    first = cluster.sim.process(
        cluster.coordinator.recover_master_partitioned(
            "m0", ["m1"]))
    cluster.sim.step()  # let the first attempt mark `recovering`
    with pytest.raises(RecoveryFailed, match="already recovering"):
        cluster.run(cluster.sim.process(
            cluster.coordinator.recover_master_partitioned(
                "m0", ["m2"])),
            timeout=50_000_000.0)
    cluster.run(first, timeout=50_000_000.0)
    assert "m0" not in cluster.coordinator.masters


# ---------------------------------------------------------------------------
# witness replay + partition planning
# ---------------------------------------------------------------------------

def test_replay_onto_a_live_master_ignores_its_ack_levels():
    """A write m0 completed speculatively lives only on m0's witnesses.
    The same client then writes on m1, whose ack level for it passes the
    first write's RpcId.  When m1 absorbs m0's partition, the witness
    replay must still execute the first write: the ack says the client
    has its result, not that any log holds it."""
    cluster = partitioned_cluster(n_masters=2, idle_sync_delay=10_000.0,
                                  min_sync_batch=500)
    client = cluster.new_client()
    key, = keys_on(cluster, "m0", 1)
    other, = keys_on(cluster, "m1", 1, tag="o")
    assert cluster.run(client.update(Write(key, "spec")),
                       timeout=10_000_000.0).fast_path
    cluster.run(client.update(Write(other, 1)), timeout=10_000_000.0)
    stats = run_recovery(cluster, "m0", ["m1"])
    assert stats["absorbed"]["m1"]["replayed"] == 1
    assert cluster.run(client.read(key), timeout=10_000_000.0) == "spec"


def test_unsynced_multiwrite_merges_partitions_and_replays_once():
    """A witnessed multi-key update whose keys straddle the partition
    cut must pull both chunks onto one recovery master (the ``owns_all``
    replay filter would otherwise drop it everywhere)."""
    cluster = partitioned_cluster(storage=storage_profile(),
                                  idle_sync_delay=10_000.0,
                                  min_sync_batch=500)
    client = cluster.new_client()
    keys = keys_on(cluster, "m0", 400)
    # two keys far apart in m0's hash span: straddle any 2-way cut
    hashed = sorted(keys, key=key_hash)
    straddle = [hashed[0], hashed[-1]]
    outcome = cluster.run(client.update(
        MultiWrite(tuple((k, "both") for k in straddle))),
        timeout=10_000_000.0)
    assert outcome is not None
    stats = run_recovery(cluster, "m0", ["m1", "m2"])
    # the merge collapsed the plan to a single partition
    assert stats["partitions"] == 1
    assert sum(s["replayed"] for s in stats["absorbed"].values()) == 1
    assert_all_readable(cluster, straddle)


def test_plan_partitions_balances_and_merges():
    ranges = ((0, 1000),)
    partitions = plan_partitions(ranges, 4)
    assert len(partitions) == 4
    assert [p.span for p in partitions] == [250, 250, 250, 250]
    assert sorted(r for p in partitions for r in p.ranges) == [
        (0, 250), (250, 500), (500, 750), (750, 1000)]
    # a request whose keys land in two different chunks merges them
    full = ((0, 2 ** 64),)
    a = next(f"q{i}" for i in range(1000)
             if key_hash(f"q{i}") < 2 ** 62)
    b = next(f"q{i}" for i in range(1000)
             if key_hash(f"q{i}") >= 3 * 2 ** 62)
    merged = plan_partitions(full, 4, (
        RecordedRequest(op=MultiWrite(((a, 1), (b, 2))),
                        rpc_id=("c", 2)),))
    assert len(merged) == 3  # quarters 0 and 3 fused
    fused = next(p for p in merged if len(p.ranges) == 2)
    assert fused.requests and fused.requests[0].rpc_id == ("c", 2)


def test_plan_partitions_orphan_requests_ride_first_partition():
    orphan = RecordedRequest(op=Write("anywhere", 1), rpc_id=("c", 9))
    h = key_hash("anywhere")
    ranges = ((h + 1, h + 100),) if h + 100 < 2 ** 64 else ((0, h),)
    partitions = plan_partitions(ranges, 2, (orphan,))
    assert orphan in partitions[0].requests


# ---------------------------------------------------------------------------
# racing the rebalancer
# ---------------------------------------------------------------------------

def test_recovery_races_rebalancer():
    """The rebalancer must skip a recovering master and keep working
    afterwards; the final map stays a partition of the hash space."""
    cluster = partitioned_cluster(storage=storage_profile())
    keys = load_master(cluster, "m0", 25, unsynced=2)
    cluster.start_rebalancer(interval=50.0, min_ops=1, threshold=1.01)
    stats = run_recovery(cluster, "m0", ["m1", "m2"])
    assert stats["partitions"] == 2
    cluster.settle(2_000.0)  # a few more rebalance rounds
    assert cluster.rebalancer.running
    assert cluster.shard_map.covers_full_range()
    assert_all_readable(cluster, keys)
    cluster.rebalancer.stop()
