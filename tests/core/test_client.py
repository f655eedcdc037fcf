"""Unit tests for the CURP client: fast path, slow path, retries."""

from __future__ import annotations

import pytest

from repro.consensus.raft import ProposeReply
from repro.core.client import ClientGaveUp
from repro.core.config import CurpConfig, OverloadConfig, ReplicationMode
from repro.core.messages import RETRY_LATER, UpdateReply
from repro.harness import build_cluster
from repro.harness.redis import build_redis_cluster
from repro.kvstore import Read, Write
from repro.redislike.server import CommandReply, DurabilityMode
from repro.rpc import AppError, RpcTransport
from tests.consensus.test_raft import add_client, build_group, wait_for_leader


def curp_cluster(**kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0, retry_backoff=10.0,
                    rpc_timeout=100.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults))


def test_fast_path_needs_all_witnesses():
    cluster = curp_cluster()
    client = cluster.new_client()
    outcome = cluster.run(client.update(Write("a", 1)))
    assert outcome.fast_path and not outcome.sync_rpc_needed
    assert outcome.latency == pytest.approx(4.0)


def test_witness_rejection_forces_sync_rpc():
    """§3.2.1: if any witness rejects, the client must wait for a sync."""
    cluster = curp_cluster()
    client_a = cluster.new_client()
    client_b = cluster.new_client()
    cluster.run(client_a.update(Write("a", 1)))  # occupies key "a" slots
    outcome = cluster.run(client_b.update(Write("a", 2)))
    # The master also detects the conflict and syncs, so the client
    # usually completes in 2 RTTs without a separate sync RPC (§5.3).
    assert outcome.synced_by_master
    assert not outcome.fast_path
    assert cluster.master().store.read("a") == 2


def test_sync_rpc_when_witness_full_but_master_commutative():
    """A witness can reject (stale garbage) while the master sees no
    conflict — then the client needs an explicit sync RPC."""
    cluster = curp_cluster()
    client = cluster.new_client()
    # Fill the witness slot for key "a" under a *different* rpc, then
    # gc it from the master's pending list so the master forgets it.
    cluster.run(client.update(Write("a", 1)))
    cluster.settle(500.0)  # synced + gc'd: witnesses clean, master clean
    # Manually poison one witness with a conflicting record.
    witness_name = cluster.witness_hosts["m0"][0]
    witness = cluster.coordinator.witness_servers[(witness_name, "m0")]
    from repro.kvstore import key_hash
    from repro.rifl import RpcId
    witness.cache.record([key_hash("b")], RpcId(99, 1), "poison")
    outcome = cluster.run(client.update(Write("b", 5)))
    assert outcome.sync_rpc_needed
    assert not outcome.fast_path
    assert cluster.master().store.read("b") == 5
    # Durable despite the rejection:
    assert cluster.master().unsynced_count == 0


def test_master_crash_update_retries_to_recovered_master():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    cluster.master().host.crash()
    standby = cluster.add_host("standby", role="master")
    done = cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby))
    update = cluster.sim.process(client.update(Write("b", 2)))
    cluster.run(cluster.sim.all_of([done, update]), timeout=1_000_000.0)
    outcome = update.value
    # Version numbering jumps after recovery (anti-ABA floor); the
    # write succeeded if it returned any version.
    assert outcome.result >= 1
    assert outcome.attempts > 1
    # Both writes survived.
    new_master = cluster.coordinator.masters["m0"].master
    assert new_master.store.read("a") == 1
    assert new_master.store.read("b") == 2


def test_client_gives_up_eventually():
    cluster = curp_cluster(max_attempts=3)
    client = cluster.new_client()
    cluster.master().host.crash()  # never recovered
    with pytest.raises(ClientGaveUp):
        cluster.run(client.update(Write("a", 1)), timeout=1_000_000.0)


def _unanswered(args, ctx):
    return RpcTransport.DEFERRED  # a handler that never replies


def _curp_never_completes(overloaded: bool):
    """The RAMCloud-style master either replies speculatively and never
    answers the sync, or sheds every update with a pushback at the cap;
    the coordinator never answers a view refresh."""
    overload = OverloadConfig(enabled=overloaded, retry_after=1_000.0,
                              retry_after_cap=1_000.0)
    cluster = curp_cluster(max_attempts=5, overload=overload)
    client = cluster.new_client()
    master = cluster.master()
    if overloaded:
        def update(args, ctx):
            raise AppError(RETRY_LATER, {"retry_after": 1_000.0})
    else:
        def update(args, ctx):
            return UpdateReply(result=1, synced=False)
    master.transport._handlers["update"] = update
    master.transport._handlers["sync"] = _unanswered
    cluster.coordinator.transport._handlers["get_config"] = _unanswered
    for endpoint in cluster.coordinator.witness_endpoints.values():
        endpoint.transport._handlers["record"] = _unanswered
    return (cluster.sim, client, lambda: cluster.run(
        client.update(Write("a", 1)), timeout=1_000_000.0),
        cluster.config.suspect_after)


def _redis_never_completes():
    """The CURP-Redis server replies speculatively and never answers
    the sync; the witness is down."""
    cluster = build_redis_cluster(DurabilityMode.CURP, n_witnesses=1)
    client = cluster.new_client()
    server = cluster.server.transport
    server._handlers["command"] = \
        lambda args, ctx: CommandReply(result="OK", synced=False)
    server._handlers["sync"] = _unanswered
    cluster.network.hosts[cluster.server.witnesses[0]].crash()
    return (cluster.sim, client, lambda: cluster.run(
        client.set("a", "1"), timeout=1e9),
        cluster.witness_servers[0].cache.suspect_after)


def _raft_never_completes():
    """The Raft leader replies speculatively and never answers the sync,
    no witness component answers, and only the leader answers a leader
    search."""
    sim, network, nodes = build_group()
    leader = wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    sim.run(sim.process(client.find_leader()))
    for node in nodes:
        handlers = node.transport._handlers
        handlers["propose"] = lambda args, ctx, node=node: ProposeReply(
            result=1, synced=False, term=node.current_term)
        handlers["sync"] = handlers["record"] = _unanswered
        if node is not leader:
            handlers["status"] = _unanswered
    return (sim, client, lambda: sim.run(sim.process(
        client.update(Write("a", 1)))),
        leader.witness.cache.suspect_after)


@pytest.mark.parametrize("backend", ["sync-path", "pushback", "redis",
                                     "raft"])
def test_client_gives_up_within_the_suspect_horizon(backend):
    """§4.5 ages witness records against the client retry horizon
    (``suspect_after``): no client may still be retrying an update once
    that much time has passed since it started.  On all three backends
    every attempt here waits as long as the client loop lets it: the
    witnesses never answer, and the server either replies speculatively
    and never answers the sync (each attempt costs fan-out + sync +
    pause + routing, all of the horizon) or sheds the update with a
    pushback at the cap."""
    sim, client, update, horizon = (
        _redis_never_completes() if backend == "redis"
        else _raft_never_completes() if backend == "raft"
        else _curp_never_completes(backend == "pushback"))
    started = sim.now
    with pytest.raises(ClientGaveUp):
        update()
    assert sim.now - started <= horizon
    assert getattr(client, "pushbacks", 0) == \
        (5 if backend == "pushback" else 0)


def test_wrong_witness_version_refreshes_and_retries():
    cluster = curp_cluster()
    client = cluster.new_client()
    # Coordinator replaces a witness behind the client's back.
    extra = cluster.add_host("w-extra", role="witness")
    cluster.run(cluster.sim.process(
        cluster.coordinator.replace_witness(
            "m0", cluster.witness_hosts["m0"][0], extra)))
    outcome = cluster.run(client.update(Write("a", 1)))
    assert outcome.result == 1
    assert outcome.attempts == 2  # one WRONG_WITNESS_VERSION bounce
    assert client.view.masters["m0"].witness_list_version == 1


def test_read_from_master():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", "value")))
    assert cluster.run(client.read("a")) == "value"
    assert cluster.run(client.read("missing")) is None


def test_reject_read_through_update():
    cluster = curp_cluster()
    client = cluster.new_client()
    with pytest.raises(ValueError):
        cluster.run(client.update(Read("a")))


def test_outcome_collection_toggle():
    cluster = curp_cluster()
    client = cluster.new_client(collect_outcomes=False)
    cluster.run(client.update(Write("a", 1)))
    assert client.outcomes == []
    assert client.completed_updates == 1
    assert client.fast_path_updates == 1


def test_read_nearby_fresh_from_backup():
    """§A.1: synced value + commuting witness → served by the backup."""
    cluster = curp_cluster(min_sync_batch=1, idle_sync_delay=50.0)
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 42)))
    cluster.settle(1_000.0)  # sync + gc: witness clean, backups fresh
    backup = cluster.backup_hosts["m0"][0]
    witness = cluster.witness_hosts["m0"][0]
    master_reads_before = cluster.master().stats.reads
    value = cluster.run(client.read_nearby("a", backup, witness))
    assert value == 42
    assert cluster.master().stats.reads == master_reads_before  # no master hop


def test_read_nearby_falls_back_on_conflict():
    """§A.1: unsynced update (still recorded on witnesses) → the read
    must go to the master, never serving the stale backup value."""
    cluster = curp_cluster()  # batch 50: update stays unsynced
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    cluster.settle(1_000.0)
    cluster.run(client.update(Write("a", 2)))  # conflicts → synced...
    cluster.run(client.update(Write("b", 3)))  # ...this one speculative
    backup = cluster.backup_hosts["m0"][0]
    witness = cluster.witness_hosts["m0"][0]
    value = cluster.run(client.read_nearby("b", backup, witness))
    assert value == 3  # master value, not the backup's stale None


def test_read_nearby_never_stale_property():
    """Sweep: after every update, a nearby read returns the latest
    value regardless of sync state."""
    cluster = curp_cluster()
    client = cluster.new_client()
    backup = cluster.backup_hosts["m0"][0]
    witness = cluster.witness_hosts["m0"][0]
    for i in range(20):
        key = f"k{i % 3}"
        cluster.run(client.update(Write(key, i)))
        value = cluster.run(client.read_nearby(key, backup, witness))
        assert value == i
