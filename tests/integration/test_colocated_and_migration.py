"""Integration: the Figure 2 colocated deployment and migration/
reconfiguration under live load."""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.harness import build_cluster
from repro.kvstore import Write, key_hash
from repro.verify import History, HistoryClient, check_linearizable


def curp_config_for_tests(**kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=10,
                    idle_sync_delay=200.0, retry_backoff=20.0,
                    rpc_timeout=200.0, max_attempts=50)
    defaults.update(kwargs)
    return CurpConfig(**defaults)


# ----------------------------------------------------------------------
# colocated witnesses (Figure 2)
# ----------------------------------------------------------------------
def test_colocated_witnesses_share_backup_hosts():
    cluster = build_cluster(curp_config_for_tests(),
                            colocate_witnesses=True)
    assert cluster.witness_hosts["m0"] == cluster.backup_hosts["m0"]
    # One host answers both backup and witness RPCs.
    client = cluster.new_client()
    outcome = cluster.run(client.update(Write("a", 1)))
    assert outcome.fast_path  # records accepted on the backup hosts
    cluster.settle(1_000.0)
    backup = cluster.coordinator.backup_servers[
        cluster.backup_hosts["m0"][0]]
    witness_host = cluster.witness_hosts["m0"][0]
    witness = cluster.coordinator.witness_servers[(witness_host, "m0")]
    assert backup.transport \
        is cluster.coordinator.witness_endpoints[witness_host].transport
    assert backup.value_of("a") == 1
    assert witness.cache.occupied_slots() == 0  # gc'd after sync


def test_colocated_recovery_after_master_crash():
    cluster = build_cluster(curp_config_for_tests(),
                            colocate_witnesses=True)
    client = cluster.new_client()
    for i in range(4):
        cluster.run(client.update(Write(f"k{i}", i)))
    cluster.master().host.crash()
    standby = cluster.add_host("standby", role="master")
    stats = cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=10_000_000.0)
    recovered = cluster.coordinator.masters["m0"].master
    for i in range(4):
        assert recovered.store.read(f"k{i}") == i


def test_colocated_pair_host_crash_degrades_gracefully():
    """Killing one backup+witness host removes one of each; updates
    fall back to the sync path (witness unreachable) but stay correct."""
    cluster = build_cluster(curp_config_for_tests(rpc_timeout=80.0),
                            colocate_witnesses=True)
    client = cluster.new_client()
    cluster.run(client.update(Write("before", 1)))
    cluster.network.hosts[cluster.backup_hosts["m0"][0]].crash()
    # The sync path needs all backups; recovery machinery replaces the
    # dead one.  Until then the client cannot durably complete — use
    # the coordinator to repair first (backup replacement, §3.6).
    spare = cluster.add_host("b-spare", role="backup")
    cluster.run(cluster.sim.process(
        cluster.coordinator.replace_backup(
            "m0", cluster.backup_hosts["m0"][0], spare)),
        timeout=10_000_000.0)
    outcome = cluster.run(client.update(Write("after", 2)),
                          timeout=10_000_000.0)
    assert outcome.result == 1
    assert cluster.run(client.read("after")) == 2


# ----------------------------------------------------------------------
# migration under live load
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 4])
def test_migration_under_load_is_linearizable(seed):
    """Move half of m0's range to m1 while clients hammer keys on both
    sides of the split; every history stays linearizable and no update
    is lost."""
    cluster = build_cluster(curp_config_for_tests(), n_masters=2,
                            seed=seed)
    history = History()
    keys = [f"mkey{i}" for i in range(6)]
    clients = [HistoryClient(cluster.new_client(collect_outcomes=False),
                             history) for _ in range(3)]
    processes = []
    for index, client in enumerate(clients):
        def script(client=client, index=index):
            rng = cluster.sim.rng
            for op_number in range(20):
                key = keys[rng.randrange(len(keys))]
                if rng.random() < 0.5:
                    yield from client.update(
                        Write(key, f"c{index}-{op_number}"))
                else:
                    yield from client.read(key)
                yield cluster.sim.timeout(rng.uniform(0, 40.0))
        processes.append(client.client.host.spawn(script(), name="load"))

    # Mid-run, migrate a quarter of the hash space from m0 to m1.
    view = cluster.coordinator.current_view()
    m0_range = next((lo, hi) for lo, hi, m in view.shard_map.tablets()
                    if m == "m0")
    cut_lo = m0_range[0]
    cut_hi = m0_range[0] + (m0_range[1] - m0_range[0]) // 4

    def chaos():
        yield cluster.sim.timeout(300.0)
        moved = yield cluster.sim.process(
            cluster.coordinator.migrate("m0", "m1", cut_lo, cut_hi))
        return moved
    chaos_process = cluster.sim.process(chaos())
    deadline = cluster.sim.now + 10_000_000.0
    while not all(p.triggered for p in processes + [chaos_process]):
        if cluster.sim.now > deadline or not cluster.sim.step():
            break
    assert chaos_process.ok
    check_linearizable(history)
    # Ownership moved for migrated keys.
    for key in keys:
        h = key_hash(key)
        owner = cluster.coordinator.current_view().shard_map.master_for_hash(h)
        if cut_lo <= h < cut_hi:
            assert owner == "m1"


def test_witness_replacement_under_load_stays_linearizable():
    cluster = build_cluster(curp_config_for_tests(), seed=8)
    history = History()
    client = HistoryClient(cluster.new_client(collect_outcomes=False),
                           history)

    def load():
        for i in range(25):
            yield from client.update(Write(f"k{i % 4}", i))
            yield cluster.sim.timeout(20.0)
    load_process = client.client.host.spawn(load(), name="load")

    def chaos():
        yield cluster.sim.timeout(150.0)
        dead = cluster.witness_hosts["m0"][1]
        cluster.network.hosts[dead].crash()
        spare = cluster.add_host("w-spare", role="witness")
        yield cluster.sim.process(
            cluster.coordinator.replace_witness("m0", dead, spare))
    chaos_process = cluster.sim.process(chaos())
    cluster.run(cluster.sim.all_of([load_process, chaos_process]),
                timeout=10_000_000.0)
    check_linearizable(history)
    assert cluster.coordinator.masters["m0"].witness_list_version == 1
