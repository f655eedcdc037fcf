"""Unit tests for the CURP master: speculative execution, commutativity
window, sync batching, duplicate filtering, modes."""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode, StorageProfile
from repro.core.master import _subtract_range
from repro.core.messages import (
    ReadArgs,
    RecordArgs,
    RecordedRequest,
    UpdateArgs,
    UpdateReply,
)
from repro.harness import build_cluster
from repro.kvstore import (
    Delete,
    Increment,
    KVStore,
    MultiWrite,
    Write,
    key_hash,
)
from repro.kvstore.backup import PartitionReadArgs, ReplicateArgs
from repro.rifl import RpcId
from repro.rpc import AppError, RpcTimeout, RpcTransport


def curp_cluster(f=3, **config_kwargs):
    defaults = dict(f=f, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0)
    defaults.update(config_kwargs)
    return build_cluster(CurpConfig(**defaults))


def raw_caller(cluster):
    return RpcTransport(cluster.network.add_host("raw-caller"))


def update_args(op, seq, wlv=0, client_id=9):
    return UpdateArgs(op=op, rpc_id=RpcId(client_id, seq), ack_seq=1,
                      witness_list_version=wlv)


def test_speculative_reply_before_sync():
    cluster = curp_cluster()
    caller = raw_caller(cluster)
    reply = cluster.run(caller.call("m0-host", "update",
                                    update_args(Write("a", 1), 1)))
    assert reply == UpdateReply(result=1, synced=False)
    master = cluster.master()
    assert master.unsynced_count == 1  # replied before replication
    assert master.stats.speculative_replies == 1


def test_conflicting_write_synced_before_reply():
    """§3.2.3: an operation touching an unsynced object forces a sync
    and the reply is tagged synced."""
    cluster = curp_cluster()
    caller = raw_caller(cluster)
    cluster.run(caller.call("m0-host", "update",
                            update_args(Write("a", 1), 1)))
    reply = cluster.run(caller.call("m0-host", "update",
                                    update_args(Write("a", 2), 2)))
    assert reply.synced is True
    master = cluster.master()
    assert master.stats.conflict_syncs == 1
    assert master.unsynced_count == 0


def test_disjoint_writes_stay_speculative():
    cluster = curp_cluster()
    caller = raw_caller(cluster)
    for seq, key in enumerate("abcde", start=1):
        reply = cluster.run(caller.call("m0-host", "update",
                                        update_args(Write(key, seq), seq)))
        assert reply.synced is False
    assert cluster.master().unsynced_count == 5


def test_batch_threshold_triggers_sync():
    cluster = curp_cluster(min_sync_batch=3, idle_sync_delay=10_000.0)
    caller = raw_caller(cluster)
    for seq, key in enumerate("abc", start=1):
        cluster.run(caller.call("m0-host", "update",
                                update_args(Write(key, seq), seq)))
    cluster.settle(1_000.0)
    master = cluster.master()
    assert master.unsynced_count == 0
    assert master.stats.syncs >= 1


def test_idle_flush_syncs_stragglers():
    cluster = curp_cluster(min_sync_batch=50, idle_sync_delay=100.0)
    caller = raw_caller(cluster)
    cluster.run(caller.call("m0-host", "update",
                            update_args(Write("a", 1), 1)))
    assert cluster.master().unsynced_count == 1
    cluster.settle(500.0)
    assert cluster.master().unsynced_count == 0


def test_sync_gcs_witnesses():
    """§4.5: right after a sync the master gc's its witnesses."""
    cluster = curp_cluster(min_sync_batch=1, idle_sync_delay=50.0)
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    cluster.settle(1_000.0)
    master = cluster.master()
    assert master.stats.gc_rpcs == 3
    for witness_name in cluster.witness_hosts["m0"]:
        witness = cluster.coordinator.witness_servers[(witness_name, "m0")]
        assert witness.cache.occupied_slots() == 0


def test_duplicate_update_returns_saved_result():
    """RIFL at the master: a retried RpcId never re-executes."""
    cluster = curp_cluster()
    caller = raw_caller(cluster)
    first = cluster.run(caller.call("m0-host", "update",
                                    update_args(Increment("c", 5), 1)))
    dup = cluster.run(caller.call("m0-host", "update",
                                  update_args(Increment("c", 5), 1)))
    assert first.result == dup.result == 5
    assert cluster.master().store.read("c") == 5  # applied once
    assert cluster.master().stats.duplicates_filtered == 1


def test_duplicate_reply_reports_synced_after_sync():
    cluster = curp_cluster(min_sync_batch=1, idle_sync_delay=50.0)
    caller = raw_caller(cluster)
    first = cluster.run(caller.call("m0-host", "update",
                                    update_args(Write("a", 1), 1)))
    assert first.synced is False
    cluster.settle(1_000.0)
    dup = cluster.run(caller.call("m0-host", "update",
                                  update_args(Write("a", 1), 1)))
    assert dup.result == first.result
    assert dup.synced is True


def test_acked_rpc_is_stale():
    cluster = curp_cluster()
    caller = raw_caller(cluster)
    cluster.run(caller.call("m0-host", "update",
                            update_args(Write("a", 1), 1)))
    # ack_seq=2 acknowledges seq 1; replaying it afterwards is an error
    args = UpdateArgs(op=Write("b", 2), rpc_id=RpcId(9, 2), ack_seq=2,
                      witness_list_version=0)
    cluster.run(caller.call("m0-host", "update", args))
    with pytest.raises(AppError) as err:
        cluster.run(caller.call("m0-host", "update",
                                update_args(Write("a", 9), 1)))
    assert err.value.code == "STALE_RPC"


def test_wrong_witness_list_version_rejected():
    cluster = curp_cluster()
    caller = raw_caller(cluster)
    with pytest.raises(AppError) as err:
        cluster.run(caller.call("m0-host", "update",
                                update_args(Write("a", 1), 1, wlv=7)))
    assert err.value.code == "WRONG_WITNESS_VERSION"
    assert err.value.info == {"current": 0}


def test_wrong_shard_rejected():
    cluster = curp_cluster()
    master = cluster.master()
    h = key_hash("foreign")
    master.owned_ranges = _subtract_range(master.owned_ranges, (h, h + 1))
    caller = raw_caller(cluster)
    with pytest.raises(AppError) as err:
        cluster.run(caller.call("m0-host", "update",
                                update_args(Write("foreign", 1), 1)))
    assert err.value.code == "WRONG_SHARD"


def test_read_of_synced_key_is_fast():
    cluster = curp_cluster(min_sync_batch=1, idle_sync_delay=50.0)
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    cluster.settle(1_000.0)
    start = cluster.sim.now
    value = cluster.run(client.read("a"))
    assert value == 1
    assert cluster.sim.now - start == pytest.approx(4.0)  # 1 RTT


def test_read_of_unsynced_key_forces_sync():
    """§3.2.3/§A.3: returning an unsynced value could externalize state
    that dies with the master; the read must wait for a sync.  A read
    preparing a conditional update (``for_update``) does not."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    assert cluster.master().unsynced_count == 1
    start = cluster.sim.now
    assert cluster.run(client.read("a", for_update=True)) == 1
    assert cluster.sim.now - start == pytest.approx(4.0)  # 1 RTT
    assert cluster.master().unsynced_count == 1  # no sync forced
    start = cluster.sim.now
    value = cluster.run(client.read("a"))
    assert value == 1
    assert cluster.master().unsynced_count == 0  # read forced the sync
    assert cluster.sim.now - start == pytest.approx(8.0)  # + backup RTT


@pytest.mark.parametrize("follow_up", ["read", "increment"])
@pytest.mark.parametrize("unsynced", [Write("k", 2), Delete("k")],
                         ids=["write", "delete"])
def test_an_unsynced_delete_holds_reads_and_conflicts_like_a_write(
        unsynced, follow_up):
    """§4.3: a delete that is not yet durable is an unsynced mutation
    of its key.  A read must not expose it before it is durable, and an
    update on the key must sync first — exactly as after an unsynced
    write, although the deleted object itself is gone from the store."""
    cluster = curp_cluster(f=1)
    client = cluster.new_client()
    master = cluster.master()
    cluster.run(client.update(Write("k", 1)))
    cluster.settle(1_000.0)
    cluster.run(client.update(unsynced))
    assert (master.synced_position, master.store.log.end) == (1, 2)
    value = None if isinstance(unsynced, Delete) else 2
    syncs = master.stats.syncs
    if follow_up == "read":
        assert cluster.run(client.read("k")) == value
        assert master.stats.syncs == syncs + 1
    else:
        outcome = cluster.run(client.update(Increment("k")))
        assert outcome.result == (value or 0) + 1
        assert master.stats.conflict_syncs == 1
    assert master.synced_position == master.store.log.end


def test_sync_mode_two_rtts():
    """Original primary-backup: reply only after backups ack."""
    cluster = build_cluster(CurpConfig(f=3, mode=ReplicationMode.SYNC))
    client = cluster.new_client()
    outcome = cluster.run(client.update(Write("a", 1)))
    assert outcome.synced_by_master is True
    assert outcome.fast_path is False
    assert outcome.latency == pytest.approx(8.0)  # 2 RTTs at 2 µs hops
    assert cluster.master().unsynced_count == 0


def test_unreplicated_mode_one_rtt():
    cluster = build_cluster(CurpConfig(f=0, mode=ReplicationMode.UNREPLICATED))
    client = cluster.new_client()
    outcome = cluster.run(client.update(Write("a", 1)))
    assert outcome.latency == pytest.approx(4.0)
    assert outcome.result == 1


def test_async_mode_one_rtt_without_witnesses():
    cluster = build_cluster(CurpConfig(f=3, mode=ReplicationMode.ASYNC))
    client = cluster.new_client()
    outcome = cluster.run(client.update(Write("a", 1)))
    assert outcome.latency == pytest.approx(4.0)
    assert outcome.fast_path is True
    assert cluster.witness_hosts["m0"] == []  # no witnesses exist


def test_curp_one_rtt_with_witnesses():
    cluster = curp_cluster()
    client = cluster.new_client()
    outcome = cluster.run(client.update(Write("a", 1)))
    assert outcome.latency == pytest.approx(4.0)  # records overlap
    assert outcome.fast_path is True


def test_multiwrite_recorded_and_synced():
    cluster = curp_cluster(min_sync_batch=1, idle_sync_delay=50.0)
    client = cluster.new_client()
    outcome = cluster.run(client.update(MultiWrite((("x", 1), ("y", 2)))))
    assert outcome.result == (1, 1)
    cluster.settle(1_000.0)
    assert cluster.master().store.read("x") == 1
    for backup_name in cluster.backup_hosts["m0"]:
        backup = cluster.coordinator.backup_servers[backup_name]
        assert backup.value_of("x") == 1 and backup.value_of("y") == 2


def test_hot_key_preemptive_sync():
    """§4.4: updating a recently-updated key triggers an immediate
    sync so future ops on the hot key find it synced."""
    cluster = curp_cluster(hot_key_window=1_000.0, min_sync_batch=50)
    caller = raw_caller(cluster)
    cluster.run(caller.call("m0-host", "update",
                            update_args(Write("other", 0), 1)))
    cluster.settle(300.0)  # idle flush syncs "other"
    cluster.run(caller.call("m0-host", "update",
                            update_args(Write("hot", 1), 2)))
    cluster.settle(300.0)
    # Second write to "hot" soon after: conflict is *avoided* because
    # the preemptive sync already cleaned the window... but the write
    # itself (within the window) triggers another preemptive sync.
    reply = cluster.run(caller.call("m0-host", "update",
                                    update_args(Write("hot", 2), 3)))
    assert reply.synced is False  # no blocking conflict
    assert cluster.master().stats.hot_key_syncs >= 1


def test_worker_pool_limits_concurrency():
    cluster = build_cluster(
        CurpConfig(f=0, mode=ReplicationMode.UNREPLICATED))
    master = cluster.master()
    master.execute_time = 10.0
    master.workers.capacity = 1
    caller = raw_caller(cluster)
    calls = [caller.call("m0-host", "update",
                         update_args(Write(f"k{i}", i), i + 1))
             for i in range(3)]
    cluster.run(cluster.sim.all_of(calls))
    # 3 ops serialized on 1 worker: 10+10+10 plus 2 RTT.
    assert cluster.sim.now == pytest.approx(34.0)


#: disk times long enough that one entry's read or rewrite is a
#: 10 µs charged delay
SLOW_DISK = StorageProfile(enabled=True, append_time=10.0,
                           read_entry_time=10.0)


def _backup(cluster):
    return cluster.coordinator.backup_servers[cluster.backup_hosts["m0"][0]]


def _entries(op):
    """The one-entry log of ``op`` on a fresh store."""
    store = KVStore()
    store.execute(op)
    return store.log.all_entries()


def _master_update(cluster, caller):
    master = cluster.master()
    master.execute_time = 10.0
    args = update_args(Write("a", 1), 1)
    return master.transport, "update", args, lambda: (
        master.store.log.end, master.registry.get(args.rpc_id),
        master.stats.updates)


def _master_read(cluster, caller):
    master = cluster.master()
    cluster.run(caller.call("m0-host", "update",
                            update_args(Write("a", 1), 1)))
    master.execute_time = 10.0
    return master.transport, "read", ReadArgs("a", key_hash("a")), \
        lambda: (master.store.log.end, master.stats.reads)


def _witness_record(cluster, caller):
    endpoint = cluster.coordinator.witness_endpoints[
        cluster.witness_hosts["m0"][0]]
    endpoint.record_time = 10.0
    tenant = endpoint.tenants["m0"]
    op, rpc_id = Write("a", 1), RpcId(9, 1)
    args = RecordArgs("m0", op.touched_hashes(), rpc_id,
                      RecordedRequest(op, rpc_id))
    return endpoint.transport, "record", args, lambda: (
        tuple(tenant.cache.all_requests()), tenant.records_processed)


def _backup_replicate(cluster, caller):
    backup = _backup(cluster)
    backup.process_time = 10.0
    return backup.transport, "replicate", \
        ReplicateArgs("m0", 0, _entries(Write("a", 1))), \
        backup.wal.all_entries


def _stored_backup(cluster, caller):
    """The first backup, holding one entry on the slow disk."""
    backup = _backup(cluster)
    cluster.run(caller.call(backup.host.name, "replicate",
                            ReplicateArgs("m0", 0, _entries(Write("a", 1)))))
    return backup


def _backup_reset_log(cluster, caller):
    backup = _stored_backup(cluster, caller)
    return backup.transport, "reset_log", \
        ReplicateArgs("m0", 0, _entries(Write("b", 2))), \
        backup.wal.all_entries


def _backup_get_data(cluster, caller):
    backup = _stored_backup(cluster, caller)
    return backup.transport, "get_backup_data", None, \
        backup.wal.all_entries


def _backup_read_partitions(cluster, caller):
    backup = _stored_backup(cluster, caller)
    return backup.transport, "read_partitions", \
        PartitionReadArgs(0, 2, (((0, 2 ** 64),),)), \
        backup.wal.all_entries


#: every server path that charges a delay before it replies: (storage
#: profile, setup returning the server's transport, the method, its
#: args, and a snapshot of the state the request would change)
DEFERRED_PATHS = {
    "master_update": (None, _master_update),
    "master_read": (None, _master_read),
    "witness_record": (None, _witness_record),
    "backup_replicate": (None, _backup_replicate),
    "backup_reset_log": (SLOW_DISK, _backup_reset_log),
    "backup_get_data": (SLOW_DISK, _backup_get_data),
    "backup_read_partitions": (SLOW_DISK, _backup_read_partitions),
}


@pytest.mark.parametrize("path", DEFERRED_PATHS)
def test_crash_inside_the_charged_delay_kills_the_deferred_reply(path):
    """The host dies while a request sits in its charged delay (an
    ``execute_time`` slot, a record's CPU time, a backup's CPU or disk
    time) and is back up before the delay ends: the request belongs to
    the previous life, so its work must change nothing and send
    nothing, and the caller times out."""
    storage, setup = DEFERRED_PATHS[path]
    config = {} if storage is None else {"storage": storage}
    cluster = curp_cluster(**config)
    caller = raw_caller(cluster)
    transport, method, args, state = setup(cluster, caller)
    delivered = []
    handler = transport._handlers[method]

    def capture(args, ctx):
        delivered.append(ctx)
        return handler(args, ctx)
    transport._handlers[method] = capture
    host = transport.host
    before = state()
    call = caller.call(host.name, method, args, timeout=40.0)
    cluster.sim.run(until=cluster.sim.now + 5.0)
    (ctx,) = delivered  # in the delay: delivered, not answered
    assert not ctx.replied and not ctx.gone()
    host.crash()
    host.restart()
    assert ctx.gone()
    sent = host.bytes_sent
    with pytest.raises(RpcTimeout):
        cluster.run(call)
    assert host.bytes_sent == sent
    assert state() == before


def test_depose_fails_update_waiting_on_conflict_sync():
    """A conflicting update is parked on its sync (a backup is down, so
    the sync cannot finish) when the master is deposed: the client must
    hear DEPOSED right away, not wait out its RPC timeout."""
    cluster = curp_cluster()
    master = cluster.master()
    caller = raw_caller(cluster)
    cluster.run(caller.call("m0-host", "update",
                            update_args(Write("a", 1), 1)))
    cluster.network.hosts[cluster.backup_hosts["m0"][0]].crash()
    waiting = caller.call("m0-host", "update",
                          update_args(Write("a", 2), 2),
                          timeout=cluster.config.rpc_timeout)
    cluster.sim.run(until=cluster.sim.now + 20.0)
    assert not waiting.triggered and master.stats.conflict_syncs == 1
    started = cluster.sim.now
    cluster.run(caller.call("m0-host", "depose", master.epoch + 1))
    with pytest.raises(AppError) as err:
        cluster.run(waiting)
    assert err.value.code == "DEPOSED"
    assert cluster.sim.now - started < cluster.config.rpc_timeout / 10
    assert master.workers.in_use == 0  # the parked worker was released


def test_subtract_range():
    assert _subtract_range([(0, 100)], (10, 20)) == [(0, 10), (20, 100)]
    assert _subtract_range([(0, 100)], (0, 100)) == []
    assert _subtract_range([(0, 10)], (50, 60)) == [(0, 10)]
    assert _subtract_range([(0, 10), (20, 30)], (5, 25)) == [(0, 5), (25, 30)]
