"""The 2-RTT slow path waits for its own update (§3.2.1).

A client whose record a witness rejected sends its RpcId as the ``sync``
RPC's argument; the master (or CURP-Redis server) resolves it through
``ResultRegistry.sync_target`` to the update's log position and syncs
only that far.  An update already durable is answered at once, with no
replicate round (no fsync); a later speculative entry stays unsynced.
``None`` still waits for the log end; an RpcId the server holds no
record of is answered ``UNKNOWN_RPC``, syncing nothing.  A crash right after such a targeted reply loses nothing: the
synced update is in the backups' log, and the later speculative ones
are on the witnesses.
"""

from __future__ import annotations

import collections

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.messages import RecordArgs, RecordedRequest
from repro.harness import build_cluster
from repro.harness.redis import build_redis_cluster
from repro.kvstore import Increment, Read, Write
from repro.net.faults import LinkProfile
from repro.redislike.commands import Command
from repro.redislike.server import DurabilityMode
from repro.rifl import RpcId
from repro.rpc import AppError
from repro.rpc.transport import RpcRequest, RpcTransport
from repro.sim import Fixed
from repro.verify import History, HistoryClient, check_linearizable

#: extra one-way delay (µs) on the client's link to the rejecting
#: witness: its verdict lands after the client's entry became durable
LATE = 50.0
#: CURP-Redis fsync time (µs); its witness verdict is later still
FSYNC = 70.0
LATE_REDIS = 100.0
#: an RpcId no server in these tests has a record of
UNKNOWN = RpcId(77, 1)


def curp_cluster():
    """f = 3 on TEST_PROFILE (2 µs one-way); nothing syncs unless asked."""
    return build_cluster(CurpConfig(
        f=3, mode=ReplicationMode.CURP, min_sync_batch=1_000,
        idle_sync_delay=1e9, retry_backoff=10.0, rpc_timeout=500.0))


def redis_cluster():
    """CURP-Redis with one witness; fsyncs only when asked to."""
    cluster = build_redis_cluster(DurabilityMode.CURP,
                                  fsync_duration=Fixed(FSYNC),
                                  curp_fsync_batch=1_000)
    cluster.server.curp_idle_fsync_delay = 1e9
    return cluster


def plant(witness, master_id: str, op, rpc_id, now: float) -> None:
    """Occupy ``op``'s slots on one witness, so a later record of the
    same key is rejected there."""
    assert witness.record(RecordArgs(master_id, op.touched_hashes(), rpc_id,
                                     RecordedRequest(op, rpc_id)),
                          now) == "ACCEPTED"


def tap_requests(network, method: str,
                 note=lambda message: message.dst) -> list:
    """``note(message)`` of each ``method`` request sent from now on."""
    sent = []

    def tap(message):
        payload = message.payload
        if type(payload) is RpcRequest and payload.method == method:
            sent.append(note(message))
    network.taps.append(tap)
    return sent


def test_master_answers_a_durable_update_sync_without_a_round():
    cluster = curp_cluster()
    writer, other = cluster.new_client(), cluster.new_client()
    master = cluster.master()
    master_host = cluster.coordinator.masters["m0"].host
    raw = RpcTransport(cluster.add_host("raw"))
    witness_host = cluster.witness_hosts["m0"][0]
    plant(cluster.coordinator.witness_servers[(witness_host, "m0")], "m0",
          Write("a", 0), RpcId(99, 1), cluster.sim.now)
    cluster.network.set_link_fault(writer.host.name, witness_host,
                                   LinkProfile(extra_delay=LATE))
    started = cluster.sim.now
    update = cluster.sim.process(writer.update(Write("a", 1)))
    cluster.sim.run(until=started + 1.0)
    # The writer's entry is made durable while its witness verdict is
    # still on the wire; then a later speculative entry is appended.
    cluster.run(raw.call(master_host, "sync", None))
    assert master.unsynced_count == 0 and not update.triggered
    assert cluster.run(other.update(Write("b", 2))).fast_path
    replicates = tap_requests(cluster.network, "replicate")
    outcome = cluster.run(update)
    assert outcome.sync_rpc_needed and not outcome.fast_path
    # witness verdict (2 RTTs + LATE), then one sync RTT; no round
    assert outcome.latency == pytest.approx(LATE + 4.0 + 4.0)
    assert replicates == []
    assert master.stats.syncs == 1
    assert master.unsynced_count == 1   # "b" is still speculative


def test_redis_answers_a_durable_command_sync_without_an_fsync():
    cluster = redis_cluster()
    server = cluster.server
    writer, other = cluster.new_client(), cluster.new_client()
    raw = RpcTransport(cluster.network.add_host("raw"))
    plant(cluster.witness_servers[0], server.master_id,
          Command("SET", ("a", "0")), RpcId(99, 1), cluster.sim.now)
    cluster.network.set_link_fault(writer.host.name, server.witnesses[0],
                                   LinkProfile(extra_delay=LATE_REDIS))
    started = cluster.sim.now
    command = cluster.sim.process(writer.set("a", "1"))
    cluster.sim.run(until=started + 1.0)
    cluster.run(raw.call(server.host.name, "sync", None))
    assert server.aof.durable_seq == 1 and not command.triggered
    assert cluster.run(other.set("b", "2")).fast_path
    acks = tap_requests(cluster.network, "sync",
                        lambda message: writer.tracker.first_incomplete)
    outcome = cluster.run(command)
    assert outcome.sync_rpc_needed and not outcome.fast_path
    # the command is acked only once its sync completed
    assert acks == [1] and writer.tracker.first_incomplete == 2
    assert outcome.latency == pytest.approx(LATE_REDIS + 4.0 + 4.0)
    assert server.aof.fsyncs == 1
    assert (server.aof.durable_seq, server.aof.end_seq) == (1, 2)


@pytest.mark.parametrize("target", ["own", None, "unknown"])
def test_master_sync_waits_for_its_update_else_the_log_end(target):
    cluster = curp_cluster()
    client, other = cluster.new_client(), cluster.new_client()
    master = cluster.master()
    master_host = cluster.coordinator.masters["m0"].host
    raw = RpcTransport(cluster.add_host("raw"))
    first = client.tracker.new_rpc()
    cluster.run(client.update(Write("a", 1), rpc_id=first))
    cluster.run(raw.call(master_host, "sync", None))
    # another client's: the first's ack would drop its completion record
    cluster.run(other.update(Write("b", 2)))
    assert (master.stats.syncs, master.unsynced_count) == (1, 1)
    arg = {"own": first, None: None, "unknown": UNKNOWN}[target]
    sync = raw.call(master_host, "sync", arg)
    if target == "unknown":
        with pytest.raises(AppError, match="UNKNOWN_RPC"):
            cluster.run(sync)
    else:
        assert cluster.run(sync) == "SYNCED"
    if target is None:
        assert (master.stats.syncs, master.unsynced_count) == (2, 0)
    else:
        assert (master.stats.syncs, master.unsynced_count) == (1, 1)


@pytest.mark.parametrize("target", ["own", None, "unknown"])
def test_redis_sync_waits_for_its_command_else_the_aof_end(target):
    cluster = redis_cluster()
    server = cluster.server
    client, other = cluster.new_client(), cluster.new_client()
    raw = RpcTransport(cluster.network.add_host("raw"))
    cluster.run(client.set("a", "1"))
    cluster.run(raw.call(server.host.name, "sync", None))
    first = server.aof.durable_entries()[0][2]
    cluster.run(other.set("b", "2"))
    assert (server.aof.fsyncs, server.aof.end_seq) == (1, 2)
    arg = {"own": first, None: None, "unknown": UNKNOWN}[target]
    sync = raw.call(server.host.name, "sync", arg)
    if target == "unknown":
        with pytest.raises(AppError, match="UNKNOWN_RPC"):
            cluster.run(sync)
    else:
        assert cluster.run(sync) == "SYNCED"
    if target is None:
        assert (server.aof.fsyncs, server.aof.durable_seq) == (2, 2)
    else:
        assert (server.aof.fsyncs, server.aof.durable_seq) == (1, 1)


def test_crash_right_after_a_targeted_sync_loses_nothing():
    """The master crashes as soon as it answered a targeted
    ``SYNCED``, with two later speculative updates unsynced and on the
    witnesses.  Recovery onto a spare replays them; the witness that
    rejected the synced write also holds a stale copy of an earlier,
    durable write of the same key, which RIFL filters."""
    cluster = curp_cluster()
    history = History()
    writer = HistoryClient(cluster.new_client(), history)
    other = HistoryClient(cluster.new_client(), history)
    master = cluster.master()
    master_host = cluster.coordinator.masters["m0"].host
    raw = RpcTransport(cluster.add_host("raw"))
    cluster.run(writer.update(Write("a", 0)))
    cluster.run(raw.call(master_host, "sync", None))
    cluster.settle(100.0)               # the gc round clears the witnesses
    stale = master.store.log.all_entries()[0].rpc_id
    witness_host = cluster.witness_hosts["m0"][0]
    plant(cluster.coordinator.witness_servers[(witness_host, "m0")], "m0",
          Write("a", 0), stale, cluster.sim.now)
    cluster.network.set_link_fault(writer.client.host.name, witness_host,
                                   LinkProfile(extra_delay=LATE))
    update = cluster.sim.process(writer.update(Write("a", 1)))
    cluster.sim.run(until=cluster.sim.now + 1.0)
    cluster.run(raw.call(master_host, "sync", None))
    assert cluster.run(other.update(Write("b", 2))).fast_path
    assert cluster.run(other.update(Increment("n", 1))).fast_path
    outcome = cluster.run(update)
    assert outcome.sync_rpc_needed
    assert master.unsynced_count == 2
    master.host.crash()
    cluster.network.clear_link_fault(writer.client.host.name, witness_host)
    standby = cluster.add_host("standby", role="master")
    stats = cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=1_000_000.0)
    assert stats["replayed"] == 2
    reader = HistoryClient(cluster.new_client(), history)
    values = {key: cluster.run(reader.read(key)) for key in "abn"}
    assert values == {"a": 1, "b": 2, "n": 1}
    check_linearizable(history)
    logged = collections.Counter(
        entry.rpc_id for entry in cluster.master().store.log.all_entries())
    assert len(logged) == 4 and set(logged.values()) == {1}


def test_master_sync_answered_unknown_rpc_resends_the_update():
    """A ``sync`` answered ``UNKNOWN_RPC`` restarts the update with the
    same RpcId; the master answers the resend from its completion record,
    so the update executes and is logged once."""
    cluster = curp_cluster()
    client = cluster.new_client()
    master = cluster.master()
    witness_host = cluster.witness_hosts["m0"][0]
    plant(cluster.coordinator.witness_servers[(witness_host, "m0")], "m0",
          Write("a", 0), RpcId(99, 1), cluster.sim.now)
    handlers = master.transport._handlers
    sync, unknown = handlers["sync"], []

    def sync_unknown_once(rpc_id, ctx):
        if not unknown:
            unknown.append(rpc_id)
            raise AppError("UNKNOWN_RPC", {"rpc_id": str(rpc_id)})
        return sync(rpc_id, ctx)
    handlers["sync"] = sync_unknown_once
    outcome = cluster.run(client.update(Write("a", 1)))
    assert outcome.sync_rpc_needed and outcome.attempts == 2
    rpc_id, = unknown
    assert [record.rpc_id for record in master.registry.records()] \
        == [rpc_id]
    assert [entry.rpc_id for entry in master.store.log.all_entries()] \
        == [rpc_id]
    assert master.stats.duplicates_filtered == 1
    assert master.store.read("a") == 1


def test_redis_sync_across_a_restart_that_lost_the_command_resends_it():
    """A CURP-Redis server crashes, restarts and recovers while a
    client's ``sync`` is on the wire.  The command was neither fsynced
    nor on the witness (a conflicting record made it reject), so the
    recovered server does not hold it, and the witness replay wrote the
    key.  The sync is answered ``UNKNOWN_RPC``, not ``SYNCED``; the
    client resends the command with its RpcId, and the write is
    acknowledged only once the server holds it, executed once."""
    cluster = redis_cluster()
    server = cluster.server
    client = cluster.new_client()
    plant(cluster.witness_servers[0], server.master_id,
          Command("SET", ("k", "other")), RpcId(99, 1), cluster.sim.now)
    cluster.network.set_link_fault(client.host.name, server.host.name,
                                   LinkProfile(extra_delay=2_000.0))
    syncs = tap_requests(cluster.network, "sync",
                         lambda message: message.payload.args)
    history = History()
    write = history.begin(client.tracker.client_id, Write("k", "v"),
                          cluster.sim.now)
    command = cluster.sim.process(client.set("k", "v"))
    while not syncs:
        cluster.sim.step()
    server.host.crash()
    server.host.restart()
    cluster.run(cluster.sim.process(server.recover()), timeout=1e6)
    assert server.store.get_string("k") == "other" and not command.triggered
    outcome = cluster.run(command, timeout=1e6)
    history.complete(write, "v", cluster.sim.now)
    read = history.begin(client.tracker.client_id, Read("k"),
                         cluster.sim.now)
    history.complete(read, cluster.run(client.get("k")).result,
                     cluster.sim.now)
    assert server.store.get_string("k") == "v"
    check_linearizable(history)
    assert outcome.sync_rpc_needed and outcome.attempts == 2
    rpc_id = syncs[0]
    assert [logged for _seq, _command, logged, _result
            in server.aof.durable_entries()].count(rpc_id) == 1


def test_redis_command_in_flight_across_a_restart_is_resent():
    """A CURP-Redis command sent just as the server crashes is lost with
    it; the client resends it with its RpcId once the deadline passes,
    and the restarted server, which replayed it from the witness,
    answers from the completion record instead of executing it again."""
    cluster = redis_cluster()
    server = cluster.server
    client = cluster.new_client()
    command = cluster.sim.process(client.set("k", "v"))
    cluster.sim.run(until=cluster.sim.now + 1.0)   # on the wire
    server.host.crash()
    cluster.sim.run(until=cluster.sim.now + 1_000.0)
    server.host.restart()
    assert cluster.run(cluster.sim.process(server.recover()),
                       timeout=1e6) == 1
    outcome = cluster.run(command, timeout=1e6)
    assert (outcome.result, outcome.attempts) == ("OK", 2)
    assert server.store.get_string("k") == "v"
    assert len(server.aof.durable_entries()) == 1
