"""Unit tests for the CURP master: speculative execution, commutativity
window, sync batching, duplicate filtering, modes."""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.master import _subtract_range
from repro.core.messages import UpdateArgs, UpdateReply
from repro.harness import build_cluster
from repro.kvstore import Increment, MultiWrite, Write, key_hash
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
        witness = cluster.coordinator.witness_servers[witness_name]
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
    that dies with the master; the read must wait for a sync."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    assert cluster.master().unsynced_count == 1
    value = cluster.run(client.read("a"))
    assert value == 1
    assert cluster.master().unsynced_count == 0  # read forced the sync


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


def test_crash_between_worker_grant_and_execute_kills_the_update():
    """The host dies while an update sits in its ``execute_time`` slot
    and is back up before the slot ends: the continuation is from the
    previous incarnation, so it must execute nothing and send nothing."""
    cluster = curp_cluster()
    master = cluster.master()
    master.execute_time = 10.0
    caller = raw_caller(cluster)
    args = update_args(Write("a", 1), 1)
    call = caller.call("m0-host", "update", args, timeout=40.0)
    cluster.sim.run(until=5.0)
    assert master.workers.in_use == 1  # granted, execute slot running
    master.host.crash()
    master.host.restart()
    sent = cluster.network.stats.per_host_sent.get("m0-host", 0)
    with pytest.raises(RpcTimeout):
        cluster.run(call)
    assert master.store.log.end == 0
    assert master.registry.get(args.rpc_id) is None
    assert master.stats.updates == 0
    assert cluster.network.stats.per_host_sent.get("m0-host", 0) == sent


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
