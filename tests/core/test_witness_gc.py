"""Failure-injection tests: uncollected witness garbage (§4.5)."""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.messages import RecordedRequest, UpdateArgs
from repro.harness import build_cluster
from repro.kvstore import MultiWrite, Write, key_hash
from repro.rifl import RpcId


def curp_cluster(builder_kwargs=None, **kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=1,
                    idle_sync_delay=50.0, retry_backoff=10.0,
                    rpc_timeout=100.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults), **(builder_kwargs or {}))


def witness_caches(cluster, master_id="m0"):
    """Every witness cache serving ``master_id``, whatever the deployment."""
    return [cluster.coordinator.witness_servers[(name, master_id)].cache
            for name in cluster.witness_hosts[master_id]]


def test_orphaned_witness_record_eventually_collected():
    """A client crashes after recording on witnesses but before its
    update reaches the master (§4.5's 'uncollected garbage').  The
    witness keeps rejecting writes to that key; once the orphan is older
    than any client's retry horizon it reports it, the master executes
    it through RIFL, syncs, and the slot is finally freed."""
    cluster = curp_cluster()
    client = cluster.new_client()
    # Simulate the crashed client: a record present on one witness only.
    orphan_rpc = RpcId(424242, 1)
    orphan_op = Write("X", "orphan-value")
    witness = cluster.coordinator.witness_servers[
        (cluster.witness_hosts["m0"][0], "m0")]
    witness.cache.record([key_hash("X")], orphan_rpc,
                         RecordedRequest(op=orphan_op, rpc_id=orphan_rpc),
                         cluster.sim.now)
    # A rejection while the orphan is young reports nothing: its client
    # could still be retrying it.
    assert not cluster.run(client.update(Write("X", "early"))).fast_path
    cluster.settle(500.0)
    assert cluster.master().stats.stale_suspects_handled == 0
    assert witness.cache.occupied_slots() == 1  # orphan still there
    cluster.settle(cluster.config.suspect_after)
    # Now a write to X: the witness rejects (slow path), the rejection
    # marks the orphan as a suspect, and the next gc reports it.
    outcome = cluster.run(client.update(Write("X", "client-value")))
    assert not outcome.fast_path  # rejected at the witness
    cluster.settle(3_000.0)
    master = cluster.master()
    assert master.stats.stale_suspects_handled >= 1
    # The orphan was executed (its client never completed, so a late
    # execution is a valid linearization of a forever-pending op)...
    cluster.settle(3_000.0)
    assert witness.cache.occupied_slots() == 0  # ...and collected.
    # The key is writable on the fast path again.
    outcome = cluster.run(client.update(Write("X", "final")))
    assert outcome.fast_path
    assert cluster.run(client.read("X")) == "final"


def test_orphan_already_executed_is_rifl_filtered():
    """The suspect was executed before (record RPC delayed past the
    master's gc): retry must be filtered, not re-executed."""
    cluster = curp_cluster()
    client = cluster.new_client()
    outcome = cluster.run(client.update(Write("K", "v1")))
    rpc_id = None
    # Find the rpc id the client used.
    master = cluster.master()
    entry = master.store.log.entry(master.store.log.end)
    rpc_id = entry.rpc_id
    cluster.settle(500.0)  # synced + gc'd everywhere
    # A duplicate (delayed) record arrives at one witness now.
    witness = cluster.coordinator.witness_servers[
        (cluster.witness_hosts["m0"][0], "m0")]
    witness.cache.record([key_hash("K")], rpc_id,
                         RecordedRequest(op=Write("K", "v1"), rpc_id=rpc_id),
                         cluster.sim.now)
    cluster.settle(cluster.config.suspect_after)
    # Conflict → suspect → master retries → RIFL filters (no new entry
    # for K) → gc clears the slot.
    cluster.run(client.update(Write("K", "v2")))
    cluster.settle(3_000.0)
    assert witness.cache.occupied_slots() == 0
    assert cluster.run(client.read("K")) == "v2"  # v1 never re-applied


def test_retry_of_a_completed_update_is_collected_by_the_next_gc_round():
    """A retry whose update already completed records afresh on every
    witness and is answered from the completion record.  The next sync's
    gc round collects those records; waiting for them to age into
    suspects would push every write to the key onto the slow path for
    a whole retry horizon."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("K", "v1")))
    master = cluster.master()
    entry = master.store.log.entry(master.store.log.end)
    cluster.settle(500.0)  # synced + gc'd everywhere
    caches = witness_caches(cluster)
    for cache in caches:
        cache.record([key_hash("K")], entry.rpc_id,
                     RecordedRequest(op=Write("K", "v1"),
                                     rpc_id=entry.rpc_id), cluster.sim.now)
    reply = cluster.run(client.transport.call(
        master.host.name, "update",
        UpdateArgs(Write("K", "v1"), entry.rpc_id, entry.rpc_id.seq,
                   master.witness_list_version)))
    assert reply.synced and master.stats.duplicates_filtered == 1
    cluster.run(client.update(Write("L", "w")))  # one sync + gc round
    cluster.settle(500.0)
    assert [cache.occupied_slots() for cache in caches] == [0, 0, 0]
    assert master.stats.stale_suspects_handled == 0
    assert cluster.run(client.update(Write("K", "v2"))).fast_path


@pytest.mark.parametrize("holders", [1, 3])
def test_durable_orphan_is_collected_by_one_gc_round(holders):
    """A delayed duplicate of a durable update, held by ``holders``
    witnesses: the client's round reports it up to f times, and the
    master handles the RpcId once and collects every copy with one
    ``gc_round`` (f RPCs in flight together), not one round per
    report."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("K", "v1")))
    master = cluster.master()
    rpc_id = master.store.log.entry(master.store.log.end).rpc_id
    cluster.settle(500.0)  # synced + gc'd everywhere
    caches = witness_caches(cluster)
    for cache in caches[:holders]:
        cache.record([key_hash("K")], rpc_id,
                     RecordedRequest(op=Write("K", "v1"), rpc_id=rpc_id),
                     cluster.sim.now)
    cluster.settle(cluster.config.suspect_after)
    stats = master.stats
    before = (stats.gc_rpcs, stats.gc_flushes, stats.stale_suspects_handled)
    assert not cluster.run(client.update(Write("K", "v2"))).fast_path
    cluster.settle(5_000.0)
    assert (stats.gc_rpcs - before[0], stats.gc_flushes - before[1],
            stats.stale_suspects_handled - before[2]) == (6, 2, 1)
    assert [cache.occupied_slots() for cache in caches] == [0, 0, 0]
    assert cluster.run(client.read("K")) == "v2"


@pytest.mark.parametrize("holders", [1, 3])
def test_orphan_costs_two_gc_rounds_however_many_witnesses_hold_it(holders):
    """Every witness holds its own copy of an orphan, so one gc fan-out
    reports the same RpcId up to f times.  The first report re-executes
    it; further ones used to take the already-executed arm and spend a
    standalone round each on a slot the orphan's own sync + gc round
    was going to collect."""
    cluster = curp_cluster()
    client = cluster.new_client()
    orphan_rpc = RpcId(424242, 1)
    caches = witness_caches(cluster)
    for cache in caches[:holders]:
        cache.record([key_hash("X")], orphan_rpc,
                     RecordedRequest(op=Write("X", "orphan"),
                                     rpc_id=orphan_rpc), cluster.sim.now)
    cluster.settle(cluster.config.suspect_after)  # past every retry
    stats = cluster.master().stats
    before = (stats.gc_rpcs, stats.gc_flushes, stats.stale_suspects_handled)
    assert not cluster.run(client.update(Write("X", "client"))).fast_path
    cluster.settle(5_000.0)
    # The client's round reports the orphan, the orphan's own sync
    # round collects it: 2 rounds of f RPCs, one suspect.
    assert (stats.gc_rpcs - before[0], stats.gc_flushes - before[1],
            stats.stale_suspects_handled - before[2]) == (6, 2, 1)
    assert [cache.occupied_slots() for cache in caches] == [0, 0, 0]


def test_gc_pairs_cover_multiwrite_all_keys():
    """gc RPCs must clear every slot a multi-object update occupied."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(MultiWrite((("a", 1), ("b", 2), ("c", 3)))))
    for name in cluster.witness_hosts["m0"]:
        witness = cluster.coordinator.witness_servers[(name, "m0")]
        assert witness.cache.occupied_slots() == 3
    cluster.settle(2_000.0)
    for name in cluster.witness_hosts["m0"]:
        witness = cluster.coordinator.witness_servers[(name, "m0")]
        assert witness.cache.occupied_slots() == 0


@pytest.mark.parametrize("builder_kwargs", [
    {},
    {"colocate_witnesses": True},
    {"n_masters": 2, "multi_tenant_witnesses": True},
], ids=["separate", "colocated", "multi-tenant"])
def test_every_deployment_drains_its_witnesses(builder_kwargs):
    """One gc round per sync round collects every recorded pair: after
    settling, no witness holds a record, no master holds a pending
    pair, and each round cost exactly one RPC per witness."""
    cluster = curp_cluster(builder_kwargs, min_sync_batch=5)
    client = cluster.new_client()
    keys = 0
    for i in range(30):
        cluster.run(client.update(Write(f"k{i}", i)))
        keys += 1
        if i % 5 == 0:
            # A multi-key update must stay inside one shard.
            group = [f"multi{i}-{j}" for j in range(12)]
            group = [key for key in group
                     if cluster.shard_for(key) == cluster.shard_for(group[0])]
            cluster.run(client.update(
                MultiWrite(tuple((key, i) for key in group[:3]))))
            keys += 3
    cluster.settle()
    for i in (0, 14, 29):
        assert cluster.run(client.read(f"k{i}")) == i
    total = cluster.total_master_stats()
    assert total.gc_pairs == keys
    assert total.gc_rpcs == 3 * total.gc_flushes
    assert total.stale_suspects_handled == 0
    for master_id in cluster.masters:
        assert cluster.master(master_id)._pending_gc == []
        assert [cache.occupied_slots()
                for cache in witness_caches(cluster, master_id)] == [0, 0, 0]
