"""Tests for the Redis-like server: durability modes, event-loop fsync
batching (§C.2), CURP integration, crash recovery (§5.4)."""

from __future__ import annotations

import pytest

from repro.harness.redis import build_redis_cluster
from repro.redislike.server import DurabilityMode
from repro.sim.distributions import Fixed


def build(mode, n_witnesses=1, fsync=Fixed(70.0), **kwargs):
    return build_redis_cluster(mode, n_witnesses=n_witnesses,
                               fsync_duration=fsync, **kwargs)


def test_nondurable_fast_but_volatile():
    cluster = build(DurabilityMode.NONDURABLE)
    client = cluster.new_client()
    outcome = cluster.run(client.set("k", "v"))
    assert outcome.result == "OK"
    assert outcome.latency == pytest.approx(4.0)  # 1 RTT, no fsync
    assert cluster.server.device.fsyncs == 0
    # Crash: the acknowledged write is gone (stock Redis behaviour).
    cluster.server.host.crash()
    cluster.server.host.restart()
    cluster.run(cluster.sim.process(cluster.server.recover()))
    assert cluster.server.store.get_string("k") is None


def test_durable_waits_for_fsync():
    cluster = build(DurabilityMode.DURABLE)
    client = cluster.new_client()
    outcome = cluster.run(client.set("k", "v"))
    assert outcome.result == "OK"
    assert outcome.latency == pytest.approx(4.0 + 70.0)  # RTT + fsync
    assert cluster.server.device.fsyncs == 1
    # Crash: the write survives in the AOF.
    cluster.server.host.crash()
    cluster.server.host.restart()
    cluster.run(cluster.sim.process(cluster.server.recover()))
    assert cluster.server.store.get_string("k") == "v"


def test_durable_event_loop_batches_fsyncs():
    """§C.2: requests queued during one fsync share the next one."""
    cluster = build(DurabilityMode.DURABLE)
    clients = [cluster.new_client() for _ in range(8)]
    processes = [c.host.spawn(c.set(f"k{i}", "v"), name="op")
                 for i, c in enumerate(clients)]
    cluster.run(cluster.sim.all_of(processes))
    # Far fewer fsyncs than writes.
    assert cluster.server.stats.writes == 8
    assert cluster.server.device.fsyncs <= 4


def test_curp_one_rtt_and_background_fsync():
    cluster = build(DurabilityMode.CURP, n_witnesses=1)
    client = cluster.new_client()
    outcome = cluster.run(client.set("k", "v"))
    assert outcome.fast_path
    assert outcome.latency == pytest.approx(4.0)  # fsync hidden
    cluster.settle(2_000.0)
    assert cluster.server.aof.durable_seq == 1  # background fsync ran
    # And the witness got garbage collected.
    assert cluster.witness_servers[0].cache.occupied_slots() == 0


def test_curp_conflict_waits_for_durability():
    """Second write to the same un-fsynced key must wait (synced tag)."""
    cluster = build(DurabilityMode.CURP, n_witnesses=1,
                    curp_fsync_batch=100)
    client = cluster.new_client()
    first = cluster.run(client.set("k", "v1"))
    assert first.fast_path
    second = cluster.run(client.set("k", "v2"))
    assert not second.fast_path  # synced by server
    assert second.latency > 60.0  # paid the fsync
    assert cluster.server.stats.conflict_waits >= 1


def test_curp_read_of_unsynced_key_waits():
    cluster = build(DurabilityMode.CURP, n_witnesses=1,
                    curp_fsync_batch=100)
    client = cluster.new_client()
    cluster.run(client.set("k", "v"))
    outcome = cluster.run(client.get("k"))
    assert outcome.result == "v"
    assert outcome.latency > 60.0  # waited for durability
    # Now it is durable; the next read is 1 RTT.
    outcome2 = cluster.run(client.get("k"))
    assert outcome2.latency == pytest.approx(4.0)


def test_curp_witness_rejection_falls_back_to_sync():
    cluster = build(DurabilityMode.CURP, n_witnesses=1,
                    curp_fsync_batch=100)
    client = cluster.new_client()
    # Poison the witness with a record for the same key.
    from repro.kvstore.hashing import key_hash
    from repro.rifl import RpcId
    cluster.witness_servers[0].cache.record([key_hash("k")], RpcId(99, 1),
                                            "poison")
    outcome = cluster.run(client.set("k", "v"))
    assert outcome.sync_rpc_needed
    assert not outcome.fast_path
    assert cluster.server.aof.durable_seq >= 1  # sync made it durable


def test_curp_crash_recovery_replays_witnesses():
    """The §5.4 headline: acknowledged-but-not-fsynced SETs survive a
    crash via witness replay."""
    cluster = build(DurabilityMode.CURP, n_witnesses=1,
                    curp_fsync_batch=100)
    client = cluster.new_client()
    for i in range(5):
        outcome = cluster.run(client.set(f"k{i}", f"v{i}"))
        assert outcome.fast_path
    assert cluster.server.aof.durable_seq == 0  # nothing fsynced yet
    cluster.server.host.crash()
    cluster.server.host.restart()
    replayed = cluster.run(cluster.sim.process(cluster.server.recover()),
                           timeout=1_000_000.0)
    assert replayed == 5
    for i in range(5):
        assert cluster.server.store.get_string(f"k{i}") == f"v{i}"
    assert cluster.server.aof.durable_seq >= 5  # replay was fsynced


def test_curp_recovery_mixed_durable_and_witnessed():
    cluster = build(DurabilityMode.CURP, n_witnesses=1, curp_fsync_batch=3)
    client = cluster.new_client()
    for i in range(3):  # batch of 3 → fsynced
        cluster.run(client.set(f"d{i}", "durable"))
    cluster.settle(2_000.0)
    cluster.run(client.incr("counter"))  # unsynced straggler
    cluster.server.host.crash()
    cluster.server.host.restart()
    cluster.run(cluster.sim.process(cluster.server.recover()),
                timeout=1_000_000.0)
    for i in range(3):
        assert cluster.server.store.get_string(f"d{i}") == "durable"
    # INCR replayed exactly once.
    assert cluster.server.store.get_string("counter") == "1"


def test_curp_increment_not_double_applied_on_recovery():
    """INCR was fsynced AND still on the witness (gc hadn't run):
    replay must be RIFL-filtered."""
    cluster = build(DurabilityMode.CURP, n_witnesses=1,
                    curp_fsync_batch=100)
    client = cluster.new_client()
    cluster.run(client.incr("c"))
    # Force durability via explicit sync (witness still holds the op
    # because gc happens after fsync; crash before gc completes).
    def sync_then_crash():
        yield cluster.server.aof.request_durable(1)
        cluster.server.host.crash()
    cluster.run(cluster.sim.process(sync_then_crash()), timeout=10_000.0)
    cluster.server.host.restart()
    cluster.run(cluster.sim.process(cluster.server.recover()),
                timeout=1_000_000.0)
    assert cluster.server.store.get_string("c") == "1"  # not 2!


def test_different_keys_commute_many_unsynced():
    """§5.5: updates on different keys pile up without any fsync."""
    cluster = build(DurabilityMode.CURP, n_witnesses=2,
                    curp_fsync_batch=1000)
    client = cluster.new_client()
    for i in range(20):
        outcome = cluster.run(client.set(f"key{i}", "v"))
        assert outcome.fast_path
    assert cluster.server.device.fsyncs == 0


def test_curp_unsynced_state_stays_bounded():
    """The server's conflict state holds only the writes not yet
    fsynced: once N distinct-key SETs have settled it holds none, and
    the witnesses hold no records."""
    cluster = build(DurabilityMode.CURP, n_witnesses=2)
    client = cluster.new_client()
    for i in range(200):
        assert cluster.run(client.set(f"key{i}", "v")).fast_path
    cluster.settle()
    assert cluster.server.aof.durable_seq == 200
    assert len(cluster.server.unsynced) == 0
    assert all(witness.cache.occupied_slots() == 0
               for witness in cluster.witness_servers)


def test_hmset_and_incr_through_curp():
    """Figure 10's three command types all take the fast path."""
    cluster = build(DurabilityMode.CURP, n_witnesses=1)
    client = cluster.new_client()
    assert cluster.run(client.set("s", "v")).fast_path
    assert cluster.run(client.hmset("h", {"f": "v"})).fast_path
    assert cluster.run(client.incr("c")).fast_path
    assert cluster.run(client.incr("c2")).result == 1


def test_read_commands_never_touch_witnesses():
    cluster = build(DurabilityMode.CURP, n_witnesses=1)
    client = cluster.new_client()
    cluster.run(client.set("k", "v"))
    cluster.settle(2_000.0)
    records_before = cluster.witness_servers[0].records_processed
    cluster.run(client.get("k"))
    assert cluster.witness_servers[0].records_processed == records_before


def test_curp_orphaned_witness_record_executed_and_collected():
    """§4.5 on CURP-Redis: a client crashed after recording a SET on the
    witness but before the server saw it.  After three gc rounds age the
    record, a rejected SET on its key marks it a suspect, the next gc
    reports it, and the server executes it through RIFL, fsyncs it and
    collects the witness's copy."""
    from repro.core.messages import RecordedRequest
    from repro.redislike.commands import Command
    from repro.rifl import RpcId

    cluster = build(DurabilityMode.CURP, n_witnesses=1, curp_fsync_batch=1)
    client = cluster.new_client()
    cache = cluster.witness_servers[0].cache
    orphan = Command("SET", ("X", "orphan"))
    orphan_rpc = RpcId(424242, 1)
    cache.record(orphan.touched_hashes(), orphan_rpc,
                 RecordedRequest(orphan, orphan_rpc))
    for i in range(3):
        cluster.run(client.set(f"other{i}", "v"))
        cluster.settle(500.0)
    assert cache.occupied_slots() == 1  # the orphan is still there
    assert not cluster.run(client.set("X", "client")).fast_path
    cluster.settle(3_000.0)
    server = cluster.server
    assert server.registry.get(orphan_rpc) is not None  # executed once
    assert server.aof.durable_seq == server.aof.end_seq
    assert cache.occupied_slots() == 0  # and collected
    assert cluster.run(client.set("X", "final")).fast_path
    assert server.store.get_string("X") == "final"
