"""Reconfiguration edge cases (§3.6) beyond the happy paths."""

from __future__ import annotations

from repro.core.config import CurpConfig, ReplicationMode
from repro.harness import build_cluster
from repro.kvstore import Write, key_hash


def curp_cluster(**kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0, retry_backoff=10.0,
                    rpc_timeout=100.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults))


def test_double_witness_replacement_bumps_version_twice():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    for round_number in (1, 2):
        old = cluster.coordinator.masters["m0"].witnesses[0]
        spare = cluster.add_host(f"w-spare{round_number}", role="witness")
        cluster.run(cluster.sim.process(
            cluster.coordinator.replace_witness("m0", old, spare)),
            timeout=10_000_000.0)
    assert cluster.coordinator.masters["m0"].witness_list_version == 2
    assert cluster.master().witness_list_version == 2
    # A twice-stale client still converges (two bounces max).
    outcome = cluster.run(client.update(Write("b", 2)))
    assert outcome.result >= 1
    assert outcome.attempts <= 3


def test_replacement_during_unsynced_window_preserves_data():
    """The §3.6 order matters: the master syncs *before* adopting the
    new witness list, so ops recorded only on the old witnesses are
    durable by the time those witnesses stop being consulted."""
    cluster = curp_cluster(min_sync_batch=1000, idle_sync_delay=1e9)
    client = cluster.new_client()
    for i in range(5):
        outcome = cluster.run(client.update(Write(f"k{i}", i)))
        assert outcome.fast_path
    assert cluster.master().unsynced_count == 5
    old = cluster.coordinator.masters["m0"].witnesses[0]
    spare = cluster.add_host("w-spare", role="witness")
    cluster.run(cluster.sim.process(
        cluster.coordinator.replace_witness("m0", old, spare)),
        timeout=10_000_000.0)
    # The replacement forced the sync.
    assert cluster.master().unsynced_count == 0
    # Crash now: backups alone carry everything (old witnesses gone).
    cluster.master().host.crash()
    standby = cluster.add_host("standby", role="master")
    cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=10_000_000.0)
    recovered = cluster.coordinator.masters["m0"].master
    for i in range(5):
        assert recovered.store.read(f"k{i}") == i


def test_migrate_entire_keyspace():
    cluster = build_cluster(CurpConfig(
        f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
        idle_sync_delay=200.0, rpc_timeout=100.0), n_masters=2)
    client = cluster.new_client()
    keys = [f"key-{i}" for i in range(8)]
    m0_keys = [k for k in keys
               if cluster.coordinator.current_view().shard_map.master_for_hash(
                   key_hash(k)) == "m0"]
    for key in keys:
        cluster.run(client.update(Write(key, f"v-{key}")))
    # Move all of m0's range to m1.
    view = cluster.coordinator.current_view()
    lo, hi = next((lo, hi) for lo, hi, m in view.shard_map.tablets()
                  if m == "m0")
    moved = cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", lo, hi)),
        timeout=10_000_000.0)
    assert moved == len(m0_keys)
    assert cluster.master("m0").owned_ranges == []
    # Every key (old and new owner) still reads correctly.
    for key in keys:
        assert cluster.run(client.read(key), timeout=10_000_000.0) \
            == f"v-{key}"
    # And writes to migrated keys go to m1.
    if m0_keys:
        before = cluster.master("m1").stats.updates
        cluster.run(client.update(Write(m0_keys[0], "after")),
                    timeout=10_000_000.0)
        assert cluster.master("m1").stats.updates == before + 1


def test_recovery_during_migration_window_filters_moved_keys():
    """Crash after the tablet map moved but while an old witness still
    holds a record for a migrated key: replay must skip it (§3.6's
    'masters will ignore such requests during replay')."""
    cluster = build_cluster(CurpConfig(
        f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
        idle_sync_delay=200.0, rpc_timeout=100.0), n_masters=2)
    client = cluster.new_client()
    key = next(f"key-{i}" for i in range(100)
               if cluster.coordinator.current_view().shard_map.master_for_hash(
                   key_hash(f"key-{i}")) == "m0")
    cluster.run(client.update(Write(key, "pre-migration")))
    h = key_hash(key)
    cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=10_000_000.0)
    # Sneak a stale record for the migrated key into m0's witness (a
    # delayed packet from a pre-migration client).
    from repro.core.messages import RecordedRequest
    from repro.rifl import RpcId
    witness = cluster.coordinator.witness_servers[
        (cluster.witness_hosts["m0"][0], "m0")]
    stale_rpc = RpcId(777, 1)
    witness.cache.record([h], stale_rpc,
                         RecordedRequest(op=Write(key, "stale!"),
                                         rpc_id=stale_rpc))
    cluster.master("m0").host.crash()
    standby = cluster.add_host("standby", role="master")
    stats = cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=10_000_000.0)
    assert stats["filtered"] >= 1
    # The migrated key's value on m1 is untouched by the stale replay.
    assert cluster.run(client.read(key), timeout=10_000_000.0) \
        == "pre-migration"
