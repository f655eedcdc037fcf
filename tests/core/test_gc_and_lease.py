"""Failure-injection tests: uncollected witness garbage (§4.5) and
lease expiry (§4.8 modification 2)."""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.master import LEASE_CHECK_INTERVAL
from repro.core.messages import RecordedRequest
from repro.harness import build_cluster
from repro.kvstore import MultiWrite, Write, key_hash
from repro.rifl import LeaseServer, RpcId


def curp_cluster(builder_kwargs=None, **kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=1,
                    idle_sync_delay=50.0, retry_backoff=10.0,
                    rpc_timeout=100.0, gc_stale_threshold=3)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults), **(builder_kwargs or {}))


def witness_caches(cluster, master_id="m0"):
    """Every witness cache serving ``master_id``, whatever the deployment."""
    coordinator = cluster.coordinator
    caches = []
    for name in cluster.witness_hosts[master_id]:
        endpoint = coordinator.witness_endpoints.get(name)
        server = (endpoint.tenants[master_id] if endpoint is not None
                  else coordinator.witness_servers[name])
        caches.append(server.cache)
    return caches


def test_orphaned_witness_record_eventually_collected():
    """A client crashes after recording on witnesses but before its
    update reaches the master (§4.5's 'uncollected garbage').  The
    witness keeps rejecting writes to that key; after 3 gc rounds it
    reports the orphan, the master executes it through RIFL, syncs, and
    the slot is finally freed."""
    cluster = curp_cluster()
    client = cluster.new_client()
    # Simulate the crashed client: a record present on one witness only.
    orphan_rpc = RpcId(424242, 1)
    orphan_op = Write("X", "orphan-value")
    witness = cluster.coordinator.witness_servers[
        cluster.witness_hosts["m0"][0]]
    witness.cache.record([key_hash("X")], orphan_rpc,
                         RecordedRequest(op=orphan_op, rpc_id=orphan_rpc))
    # Three unrelated writes → three sync+gc rounds age the orphan.
    for i in range(3):
        cluster.run(client.update(Write(f"other{i}", i)))
        cluster.settle(500.0)
    assert witness.cache.occupied_slots() == 1  # orphan still there
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
        cluster.witness_hosts["m0"][0]]
    witness.cache.record([key_hash("K")], rpc_id,
                         RecordedRequest(op=Write("K", "v1"), rpc_id=rpc_id))
    for i in range(3):
        cluster.run(client.update(Write(f"pad{i}", i)))
        cluster.settle(500.0)
    # Conflict → suspect → master retries → RIFL filters (no new entry
    # for K) → gc clears the slot.
    cluster.run(client.update(Write("K", "v2")))
    cluster.settle(3_000.0)
    assert witness.cache.occupied_slots() == 0
    assert cluster.run(client.read("K")) == "v2"  # v1 never re-applied


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
                                     rpc_id=orphan_rpc))
        cache.gc_batch([], rounds=3)  # aged past gc_stale_threshold
    stats = cluster.master().stats
    before = (stats.gc_rpcs, stats.gc_flushes, stats.stale_suspects_handled)
    assert not cluster.run(client.update(Write("X", "client"))).fast_path
    cluster.settle(5_000.0)
    # The client's round reports the orphan, the orphan's own sync
    # round collects it: 2 rounds of f RPCs, one suspect.
    assert (stats.gc_rpcs - before[0], stats.gc_flushes - before[1],
            stats.stale_suspects_handled - before[2]) == (6, 2, 1)
    assert [cache.occupied_slots() for cache in caches] == [0, 0, 0]


def test_lease_expiry_syncs_before_dropping_records():
    """§4.8 mod 2: masters must sync before expiring a client lease —
    otherwise a later witness replay of that client's ops would be
    ignored and the ops lost."""
    cluster = curp_cluster(min_sync_batch=1000, idle_sync_delay=1e9)
    # Wire a lease server with a short lease into the master directly.
    master = cluster.master()
    lease_server = LeaseServer(cluster.sim, lease_duration=20_000.0)
    master.lease_server = lease_server
    master.host.spawn(master._lease_expiry_loop(), name="lease-gc")
    client = cluster.new_client()
    client_id = lease_server.register_client()  # the lease that expires
    # Make the master hold an unsynced op from that client.
    from repro.core.messages import UpdateArgs
    from repro.rpc import RpcTransport
    caller = RpcTransport(cluster.network.add_host("legacy-client"))
    args = UpdateArgs(op=Write("L", 1), rpc_id=RpcId(client_id, 1),
                      ack_seq=1, witness_list_version=0)
    cluster.run(caller.call("m0-host", "update", args))
    assert master.unsynced_count == 1
    assert master.registry.record_count() == 1
    # Let the lease expire and the expiry loop run once.
    cluster.sim.run(until=cluster.sim.now + LEASE_CHECK_INTERVAL + 10_000.0)
    assert master.registry.record_count() == 0       # records dropped...
    assert master.unsynced_count == 0                # ...but synced first
    assert lease_server.expiry_of(client_id) is None


def test_gc_pairs_cover_multiwrite_all_keys():
    """gc RPCs must clear every slot a multi-object update occupied."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(MultiWrite((("a", 1), ("b", 2), ("c", 3)))))
    for name in cluster.witness_hosts["m0"]:
        witness = cluster.coordinator.witness_servers[name]
        assert witness.cache.occupied_slots() == 3
    cluster.settle(2_000.0)
    for name in cluster.witness_hosts["m0"]:
        witness = cluster.coordinator.witness_servers[name]
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
