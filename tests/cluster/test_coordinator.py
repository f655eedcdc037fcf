"""Tests for the cluster coordinator: config, reconfiguration (§3.6),
migration, spares."""

from __future__ import annotations

import ast
import collections
import pathlib

import pytest

from repro.core.client import CurpClient
from repro.core.config import CurpConfig, ReplicationMode, StorageProfile
from repro.core.messages import AbsorbPartitionArgs, UpdateArgs
from repro.core.recovery import RecoveryFailed
from repro.harness import RAMCLOUD_PROFILE, build_cluster
from repro.kvstore import ConditionalWrite, Delete, Increment, Write, key_hash
from repro.rifl import RpcId
from repro.rpc.transport import RpcRequest, RpcResponse, RpcTransport


SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


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
    assert len(view.shard_map.tablets()) == 2
    assert set(view.masters) == {"m0", "m1"}
    # Every hash resolves to exactly one master.
    for h in (0, 2 ** 63, 2 ** 64 - 1):
        assert view.shard_map.master_for_hash(h) in {"m0", "m1"}


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


def test_client_ids_count_up_and_a_lost_reply_burns_its_id():
    """Client ids come from a counter: distinct and increasing.  A
    ``connect`` whose first ``register_client`` reply is dropped retries
    onto a fresh id, and the id the lost reply carried is never handed
    out again."""
    cluster = curp_cluster()
    a, b = cluster.new_client(), cluster.new_client()
    assert 0 < a.tracker.client_id < b.tracker.client_id
    coordinator = cluster.coordinator.host.name
    host = cluster.add_host("lossy-client")
    lossy = CurpClient(host, cluster.config, coordinator=coordinator)
    # The reply to the first request is lost; heal before the retry.
    cluster.network.partition_one_way(coordinator, host.name)
    cluster.sim.schedule_callback(cluster.config.rpc_timeout / 2,
                                  cluster.network.heal_one_way,
                                  coordinator, host.name)
    dropped = cluster.network.stats.messages_dropped
    cluster.run(lossy.connect())
    assert cluster.network.stats.messages_dropped == dropped + 1
    lost = b.tracker.client_id + 1
    assert lossy.tracker.client_id == lost + 1
    later = cluster.new_client()
    ids = [c.tracker.client_id for c in (a, b, lossy, later)]
    assert ids == sorted(set(ids)) and lost not in ids
    cluster.run(lossy.update(Write("k", 1)))
    registry = cluster.master().registry
    assert registry.get(RpcId(lossy.tracker.client_id, 1)) is not None
    assert registry.get(RpcId(lost, 1)) is None


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


def test_replace_backup_onto_a_dead_spare_gives_up_cleanly():
    """Regression: the coordinator's bounded retry gives up with
    RecoveryFailed, and so does the master.  Each attempt makes one
    ``reset_log``; the master's own unbounded retry loop used to keep
    one loop per attempt sending forever after the give-up."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    dead = cluster.backup_hosts["m0"][2]
    cluster.network.hosts[dead].crash()
    spare = cluster.add_host("b-spare", role="backup")
    spare.crash()
    with pytest.raises(RecoveryFailed, match="update_backup_config"):
        cluster.run(cluster.sim.process(
            cluster.coordinator.replace_backup("m0", dead, spare)),
            timeout=1_000_000.0)
    resets = []

    def tap(message):
        if getattr(message.payload, "method", None) == "reset_log":
            resets.append(message)
    cluster.network.taps.append(tap)
    cluster.settle(10 * cluster.config.rpc_timeout)
    assert resets == []
    assert cluster.coordinator.transport.pending_calls == 0
    assert cluster.coordinator.transport.watched_deadlines == 0
    assert cluster.coordinator.masters["m0"].backups[2] == dead


def test_slow_backup_reset_is_sent_once_across_coordinator_retries():
    """Regression: a whole-log ``reset_log`` (400 entries at 5 µs) far
    outlasts ``rpc_timeout`` (500 µs), so the coordinator retries
    ``update_backup_config`` before the first reset lands.  Each retry
    joins the reset in flight; it used to start another whole-log reset
    of its own (4 in all)."""
    cluster = curp_cluster(rpc_timeout=500.0, storage=StorageProfile(
        enabled=True, append_time=5.0))
    client = cluster.new_client()
    for i in range(400):
        cluster.run(client.update(Write(f"k{i}", i)))
    cluster.settle(5_000.0)
    assert cluster.master().unsynced_count == 0
    dead = cluster.backup_hosts["m0"][2]
    cluster.network.hosts[dead].crash()
    spare = cluster.add_host("b-spare", role="backup")
    resets = []

    def tap(message):
        if getattr(message.payload, "method", None) == "reset_log":
            resets.append(message.dst)
    cluster.network.taps.append(tap)
    new_list = cluster.run(cluster.sim.process(
        cluster.coordinator.replace_backup("m0", dead, spare)),
        timeout=1_000_000.0)
    assert "b-spare" in new_list
    assert resets == ["b-spare"]
    assert cluster.coordinator.backup_servers["b-spare"].entry_count() == 400
    assert cluster.master()._backup_resets == {}


def test_retries_joined_to_a_failing_reset_are_each_answered():
    """The reset onto a dead spare fails at its derived deadline; every
    coordinator retry that joined it gets that failure as its answer,
    and the coordinator's next retry starts one new reset."""
    cluster = curp_cluster(rpc_timeout=500.0, storage=StorageProfile(
        enabled=True, append_time=5.0))
    client = cluster.new_client()
    for i in range(400):
        cluster.run(client.update(Write(f"k{i}", i)))
    cluster.settle(5_000.0)
    dead = cluster.backup_hosts["m0"][2]
    cluster.network.hosts[dead].crash()
    spare = cluster.add_host("b-spare", role="backup")
    spare.crash()
    master, coordinator = cluster.master().host.name, \
        cluster.coordinator.host.name
    seen = {"asked": 0, "answered": 0, "reset_log": 0}

    def tap(message):
        payload = message.payload
        if type(payload) is RpcRequest:
            if payload.method == "update_backup_config":
                seen["asked"] += 1
            elif payload.method == "reset_log":
                seen["reset_log"] += 1
        elif (type(payload) is RpcResponse and message.src == master
              and message.dst == coordinator):
            seen["answered"] += 1
    cluster.network.taps.append(tap)
    with pytest.raises(RecoveryFailed, match="update_backup_config"):
        cluster.run(cluster.sim.process(
            cluster.coordinator.replace_backup("m0", dead, spare)),
            timeout=1_000_000.0)
    cluster.settle(20_000.0)
    assert seen == {"asked": 20, "answered": 20, "reset_log": 5}
    assert cluster.master()._backup_resets == {}


def test_migration_moves_range_and_versions():
    cluster = build_cluster(CurpConfig(
        f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
        idle_sync_delay=200.0, rpc_timeout=100.0), n_masters=2)
    client = cluster.new_client()
    # Find a key owned by m0 and bump its version to 3.
    key = next(f"key-{i}" for i in range(100)
               if cluster.coordinator.current_view().shard_map.master_for_hash(
                   key_hash(f"key-{i}")) == "m0")
    for value in range(3):
        cluster.run(client.update(Write(key, value)))
    h = key_hash(key)
    moved = cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=1_000_000.0)
    assert moved == 1
    assert cluster.coordinator.current_view().shard_map.master_for_hash(h) == "m1"
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
               if cluster.coordinator.current_view().shard_map.master_for_hash(
                   key_hash(f"key-{i}")) == "m0")
    cluster.run(client.update(Write(key, 1)))
    witness = cluster.coordinator.witness_servers[
        (cluster.witness_hosts["m0"][0], "m0")]
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
               if cluster.coordinator.current_view().shard_map.master_for_hash(
                   key_hash(f"key-{i}")) == "m0")
    cluster.run(client.update(Write(key, 1)))
    h = key_hash(key)
    cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=1_000_000.0)
    witness_name = cluster.witness_hosts["m0"][0]
    witness = cluster.coordinator.witness_servers[(witness_name, "m0")]
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
    witness = cluster.coordinator.witness_servers[(witness_name, "m0")]
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


def two_masters():
    return build_cluster(CurpConfig(
        f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
        idle_sync_delay=200.0, rpc_timeout=100.0), n_masters=2)


def keys_on_m0(cluster, count):
    return [f"key-{i}" for i in range(200)
            if cluster.shard_for(f"key-{i}") == "m0"][:count]


def migrate_key(cluster, key):
    h = key_hash(key)
    return cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=1_000_000.0)


def test_retried_absorb_appends_nothing_twice():
    """A lost ``absorb_partition`` reply makes the coordinator re-send
    the same hand-over: the destination keeps one tablet, logs each
    handed RpcId on exactly one entry, and the retry leaves every
    version (and the log) where the first attempt put it."""
    cluster = two_masters()
    client = cluster.new_client()
    keys = keys_on_m0(cluster, 6)
    for value, key in enumerate(keys):
        cluster.run(client.update(Write(key, value)))
    cluster.run(client.update(Delete(keys[0])))
    cluster.run(client.update(Write(keys[0], "re-created")))
    coordinator = cluster.coordinator
    lo, hi = coordinator.masters["m0"].owned_ranges[0]
    source, master = cluster.master("m0"), cluster.master("m1")
    versions = [source.store.version(key) for key in keys]

    def hand_over_twice():
        entries = yield coordinator.transport.call(
            coordinator.masters["m0"].host, "migrate_out", (lo, hi),
            timeout=1_000.0)
        args = AbsorbPartitionArgs(ranges=((lo, hi),), entries=entries,
                                   requests=())
        after = []
        for _ in range(2):
            yield coordinator.transport.call(
                coordinator.masters["m1"].host, "absorb_partition", args,
                timeout=1_000.0)
            after.append(([master.store.version(key) for key in keys],
                          master.store.log.end))
        return entries, after
    entries, after = cluster.run(cluster.sim.process(hand_over_twice()),
                                 timeout=1_000_000.0)
    assert master.owned_ranges.count((lo, hi)) == 1
    logged = collections.Counter(entry.rpc_id
                                 for entry in master.store.log.all_entries()
                                 if entry.rpc_id is not None)
    assert set(logged) == {entry.rpc_id for entry in entries}
    assert set(logged.values()) == {1}
    assert after[0] == after[1]
    assert after[0][0] == versions


def test_retry_after_migration_answers_from_the_completion_record():
    """An Increment m0 completed, whose reply was lost, is retried after
    its key migrated to m1: the completion record moved with the entry,
    so m1 answers 11 and does not execute the Increment a second time."""
    cluster = two_masters()
    client = cluster.new_client()
    key, = keys_on_m0(cluster, 1)
    cluster.run(client.update(Write(key, 10)))
    raw = RpcTransport(cluster.network.add_host("raw"))
    rpc_id = RpcId(99, 1)

    def send(master_id):
        managed = cluster.coordinator.masters[master_id]
        reply = cluster.run(raw.call(
            managed.host, "update",
            UpdateArgs(Increment(key, 1), rpc_id, 1,
                       managed.witness_list_version), timeout=1_000.0))
        return reply.result
    assert send("m0") == 11  # the reply the client lost
    migrate_key(cluster, key)
    assert send("m1") == 11
    assert cluster.master("m1").store.read(key) == 11


def test_deleted_key_keeps_its_version_counter_across_migration():
    """A Delete moves with its key.  Two keys get the same history —
    three writes (version 3), a delete, three writes that re-create it —
    and one of them migrates to m1 after the delete: a ConditionalWrite
    prepared against the stale version 3 fails on both."""
    cluster = two_masters()
    client = cluster.new_client()
    stays, moves = keys_on_m0(cluster, 2)
    for key in (stays, moves):
        for value in range(3):
            cluster.run(client.update(Write(key, value)))
        cluster.run(client.update(Delete(key)))
    migrate_key(cluster, moves)
    for key in (stays, moves):
        for value in range(3):
            cluster.run(client.update(Write(key, value)))
        outcome = cluster.run(client.update(
            ConditionalWrite(key, "stale", expected_version=3)))
        assert outcome.result[0] == "MISMATCH", key


def test_source_forgets_the_keys_it_hands_over():
    """After half of m0's range moves to m1, m0's object table holds
    only keys m0 owns; moving the range back reads m1's newest values
    (written there after the first move) at m1's versions."""
    cluster = two_masters()
    client = cluster.new_client()
    ranges = cluster.coordinator.masters["m0"].owned_ranges
    keys = [key for key in (f"key-{i}" for i in range(600))
            if any(lo <= key_hash(key) < hi for lo, hi in ranges)][:201]
    for key in keys:
        cluster.run(client.update(Write(key, f"{key}@m0")))
    keys.sort(key=key_hash)
    moved = keys[100:]
    lo, hi = key_hash(moved[0]), max(hi for _lo, hi in ranges)
    cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", lo, hi)), timeout=1_000_000.0)
    assert sorted(cluster.master("m0").store._objects) == sorted(keys[:100])
    for key in moved[:10]:
        cluster.run(client.update(Write(key, f"{key}@m1")))
    cluster.run(client.update(Delete(moved[10])))
    versions = {key: cluster.master("m1").store.version(key) for key in moved}
    cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m1", "m0", lo, hi)), timeout=1_000_000.0)
    assert not any(lo <= key_hash(key) < hi
                   for key in cluster.master("m1").store._objects)
    for key in moved:
        expected = (None if key == moved[10]
                    else f"{key}@m1" if key in moved[:10] else f"{key}@m0")
        assert cluster.run(client.read(key)) == expected, key
        assert cluster.master("m0").store.version(key) == versions[key]


def test_lost_migrate_out_reply_hands_the_same_entries_over_again():
    """The source forgets what ``migrate_out`` hands over, so a
    coordinator retry after a lost reply must get the same entries, or
    the keys the first answer carried never reach the destination."""
    cluster = two_masters()
    client = cluster.new_client()
    ranges = cluster.coordinator.masters["m0"].owned_ranges
    keys = [key for key in (f"key-{i}" for i in range(300))
            if any(lo <= key_hash(key) < hi for lo, hi in ranges)][:60]
    for round_ in range(2):
        for key in keys:
            cluster.run(client.update(Write(key, f"{key}#{round_}")))
    cluster.run(client.update(Delete(keys[0])))
    source = cluster.master("m0")
    before = {key: (source.store.read(key), source.store.version(key))
              for key in keys}
    src_host = cluster.coordinator.masters["m0"].host
    coordinator = cluster.coordinator.host.name
    asked = []

    def tap(message):
        payload = message.payload
        if (type(payload) is RpcRequest and payload.method == "migrate_out"
                and not asked):
            asked.append(cluster.sim.now)
            # lose the reply; heal before the coordinator's retry
            cluster.network.partition_one_way(src_host, coordinator)
            cluster.sim.schedule_callback(
                cluster.config.rpc_timeout / 2,
                cluster.network.heal_one_way, src_host, coordinator)
    cluster.network.taps.append(tap)
    dropped = cluster.network.stats.messages_dropped
    cluster.run(cluster.sim.process(cluster.coordinator.migrate(
        "m0", "m1", *ranges[0])), timeout=1_000_000.0)
    assert cluster.network.stats.messages_dropped == dropped + 1
    destination = cluster.master("m1")
    assert {key: (destination.store.read(key), destination.store.version(key))
            for key in keys} == before
    assert not source.store._objects
    for key in keys:
        assert cluster.run(client.read(key)) == before[key][0], key


def test_only_the_absorb_handler_installs_another_masters_entries():
    """One tablet hand-over: in ``core`` and ``cluster`` the only code
    that puts another master's log entries into a store is the
    ``absorb_partition`` handler (``KVStore.install``)."""
    installers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner if owner is not None else child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "install"):
                installers.append(owner)
            visit(child, owner)
    for package in ("core", "cluster"):
        for path in sorted((SRC / package).glob("*.py")):
            visit(ast.parse(path.read_text()), None)
    assert installers == ["_handle_absorb_partition"]


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


# ----------------------------------------------------------------------
# repairs cost what the member they replace cost
# ----------------------------------------------------------------------
def ramcloud_cluster():
    return build_cluster(CurpConfig(f=3, mode=ReplicationMode.CURP,
                                    rpc_timeout=100.0),
                         profile=RAMCLOUD_PROFILE)


def test_replacement_witness_charges_the_record_time():
    assert RAMCLOUD_PROFILE.witness_record_time > 0
    cluster = ramcloud_cluster()
    dead = cluster.witness_hosts["m0"][1]
    cluster.network.hosts[dead].crash()
    spare = cluster.add_host("w-spare", role="witness")
    cluster.run(cluster.sim.process(
        cluster.coordinator.replace_witness("m0", dead, spare)),
        timeout=1_000_000.0)
    assert cluster.coordinator.witness_endpoints["w-spare"].record_time \
        == RAMCLOUD_PROFILE.witness_record_time


def test_replacement_backup_charges_the_process_time():
    assert RAMCLOUD_PROFILE.backup_process_time > 0
    cluster = ramcloud_cluster()
    dead = cluster.backup_hosts["m0"][2]
    cluster.network.hosts[dead].crash()
    spare = cluster.add_host("b-spare", role="backup")
    cluster.run(cluster.sim.process(
        cluster.coordinator.replace_backup("m0", dead, spare)),
        timeout=1_000_000.0)
    assert cluster.coordinator.backup_servers["b-spare"].process_time \
        == RAMCLOUD_PROFILE.backup_process_time


def test_recovery_spare_backup_charges_the_process_time():
    cluster = ramcloud_cluster()
    spare = cluster.add_host("bspare", role="backup")
    cluster.coordinator.backup_spares.append(spare)
    cluster.network.hosts[cluster.backup_hosts["m0"][0]].crash()
    cluster.master().host.crash()
    standby = cluster.add_host("standby", role="master")
    cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=10_000_000.0)
    assert "bspare" in cluster.coordinator.masters["m0"].backups
    assert cluster.coordinator.backup_servers["bspare"].process_time \
        == RAMCLOUD_PROFILE.backup_process_time


def test_control_plane_takes_no_deadline_parameter():
    """Control-plane calls wait ``config.rpc_timeout``, or a deadline
    derived from the storage model for bulk recovery calls: no function
    of the coordinator, the watchdog, the rebalancer or recovery takes
    a caller-chosen ``rpc_timeout``."""
    offenders = []
    for path in sorted((SRC / "cluster").glob("*.py")) + [
            SRC / "core" / "recovery.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                names = [a.arg for a in (arguments.posonlyargs + arguments.args
                                         + arguments.kwonlyargs)]
                if "rpc_timeout" in names:
                    offenders.append(f"{path.name}:{node.name}")
    assert offenders == []
