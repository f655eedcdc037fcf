"""The paper's safety claim, checked mechanically (§3.4):

CURP keeps every client-visible history linearizable — under concurrent
conflicting clients, message loss, master crashes and recoveries.

Each test drives concurrent instrumented clients against a cluster,
optionally injects failures, then runs the Wing&Gong checker over the
collected history.  The async-replication baseline is used as a
negative control: it loses acknowledged writes on a crash and the
checker must catch that.
"""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.harness import build_cluster
from repro.kvstore import Increment, Write
from repro.verify import (
    CounterModel,
    History,
    HistoryClient,
    LinearizabilityError,
    check_linearizable,
)


def curp_cluster(seed=0, drop_rate=0.0, **kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=10,
                    idle_sync_delay=200.0, retry_backoff=20.0,
                    rpc_timeout=150.0, max_attempts=60)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults), seed=seed,
                         drop_rate=drop_rate)


def run_workload(cluster, history, n_clients, ops_per_client, keys,
                 increments=False, op_gap=0.0):
    """Spawn concurrent clients doing random reads/writes; returns the
    spawned processes."""
    processes = []
    for index in range(n_clients):
        client = HistoryClient(cluster.new_client(collect_outcomes=False),
                               history)

        def script(client=client, index=index):
            rng = cluster.sim.rng
            for op_number in range(ops_per_client):
                key = keys[rng.randrange(len(keys))]
                roll = rng.random()
                if increments:
                    if roll < 0.5:
                        yield from client.update(Increment(key, 1))
                    else:
                        yield from client.read(key)
                elif roll < 0.5:
                    value = f"c{index}-{op_number}"
                    yield from client.update(Write(key, value))
                else:
                    yield from client.read(key)
                if op_gap:
                    yield cluster.sim.timeout(rng.uniform(0, op_gap))

        processes.append(client.client.host.spawn(script(), name="workload"))
    return processes


def drain(cluster, processes, timeout=10_000_000.0):
    deadline = cluster.sim.now + timeout
    while not all(p.triggered for p in processes):
        if cluster.sim.now > deadline or not cluster.sim.step():
            break


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_concurrent_conflicting_clients_linearizable(seed):
    cluster = curp_cluster(seed=seed)
    history = History()
    processes = run_workload(cluster, history, n_clients=4,
                             ops_per_client=25, keys=["a", "b", "c"])
    drain(cluster, processes)
    assert len(history) == 4 * 25
    check_linearizable(history)


@pytest.mark.parametrize("frame_coalescing", [False, True])
@pytest.mark.parametrize("seed", [1, 2])
def test_sharded_cluster_linearizable(seed, frame_coalescing):
    """Sharded multi-master cluster with batched witness gc: concurrent
    clients route across all shards and the global history — therefore
    every per-shard sub-history — stays linearizable.  Parametrized
    over frame coalescing (ISSUE 4): whole-frame transport must not
    change any client-visible outcome."""
    cluster = build_cluster(CurpConfig(
        f=3, mode=ReplicationMode.CURP, min_sync_batch=10,
        idle_sync_delay=200.0, retry_backoff=20.0, rpc_timeout=150.0,
        max_attempts=60, frame_coalescing=frame_coalescing),
        seed=seed, n_masters=4)
    keys = [f"key-{i}" for i in range(16)]
    shards = {cluster.shard_for(key) for key in keys}
    assert shards == {"m0", "m1", "m2", "m3"}  # keys hit every shard
    history = History()
    processes = run_workload(cluster, history, n_clients=4,
                             ops_per_client=25, keys=keys)
    drain(cluster, processes)
    assert len(history) == 4 * 25
    for master_id in shards:
        assert cluster.master(master_id).stats.updates > 0
    check_linearizable(history)


@pytest.mark.parametrize("frame_coalescing", [False, True])
@pytest.mark.parametrize("seed", [1, 2])
def test_sharded_multi_tenant_witnesses_linearizable(seed,
                                                     frame_coalescing):
    """The ISSUE 4 shared-witness deployment: four shards served by f
    multi-tenant witness endpoints.  The global history
    stays linearizable and the endpoints actually serve every shard."""
    cluster = build_cluster(CurpConfig(
        f=3, mode=ReplicationMode.CURP, min_sync_batch=10,
        idle_sync_delay=200.0, retry_backoff=20.0, rpc_timeout=150.0,
        max_attempts=60, frame_coalescing=frame_coalescing),
        seed=seed, n_masters=4, multi_tenant_witnesses=True)
    keys = [f"key-{i}" for i in range(16)]
    history = History()
    processes = run_workload(cluster, history, n_clients=4,
                             ops_per_client=25, keys=keys)
    drain(cluster, processes)
    cluster.settle(2_000.0)
    assert len(history) == 4 * 25
    endpoints = cluster.coordinator.witness_endpoints
    assert set(endpoints) == {"wshared0", "wshared1", "wshared2"}
    for endpoint in endpoints.values():
        assert set(endpoint.tenants) == {"m0", "m1", "m2", "m3"}
        assert endpoint.stats.records > 0
    check_linearizable(history)


@pytest.mark.parametrize("frame_coalescing", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_rebalancer_migrates_hot_tablet_mid_workload_linearizable(
        seed, frame_coalescing):
    """ISSUE 5: the rebalancer splits and migrates a hot tablet *while*
    concurrent clients hammer it.  Every client crosses the migration
    through the WRONG_SHARD → refresh path, witness records for moved
    keys are rejected/evicted rather than replayed, and the global
    history must stay linearizable in both framing modes."""
    cluster = build_cluster(CurpConfig(
        f=3, mode=ReplicationMode.CURP, min_sync_batch=10,
        idle_sync_delay=200.0, retry_backoff=20.0, rpc_timeout=150.0,
        max_attempts=60, frame_coalescing=frame_coalescing),
        seed=seed, n_masters=4)
    # A key set deliberately skewed onto one shard, so the rebalancer
    # has a hot tablet to move mid-run.
    hot_keys = [f"key-{i}" for i in range(200)
                if cluster.shard_for(f"key-{i}") == "m0"][:10]
    cold_keys = [f"key-{i}" for i in range(40)
                 if cluster.shard_for(f"key-{i}") != "m0"][:4]
    rebalancer = cluster.start_rebalancer(interval=60.0, threshold=1.3,
                                          min_ops=16)
    history = History()
    processes = run_workload(cluster, history, n_clients=4,
                             ops_per_client=40,
                             keys=hot_keys + cold_keys, op_gap=10.0)
    drain(cluster, processes)
    rebalancer.stop()
    cluster.settle(2_000.0)
    assert len(history) == 4 * 40
    assert rebalancer.stats.migrations >= 1, \
        "the storm never migrated — the test lost its subject"
    # The hot tablet actually moved: some initially-m0 keys changed
    # owner, and the map is still a full partition.
    assert {cluster.shard_for(k) for k in hot_keys} != {"m0"}
    assert cluster.shard_map.covers_full_range()
    check_linearizable(history)


@pytest.mark.parametrize("seed", [1, 2])
def test_linearizable_with_message_loss(seed):
    cluster = curp_cluster(seed=seed, drop_rate=0.02)
    history = History()
    processes = run_workload(cluster, history, n_clients=3,
                             ops_per_client=20, keys=["a", "b"])
    drain(cluster, processes)
    check_linearizable(history)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_linearizable_across_master_crash(seed):
    """The headline safety property: crash the master mid-workload with
    unsynced speculative writes in flight, recover, and verify the
    full client-visible history."""
    cluster = curp_cluster(seed=seed, min_sync_batch=50)  # stay unsynced
    history = History()
    processes = run_workload(cluster, history, n_clients=4,
                             ops_per_client=20, keys=["a", "b", "c"],
                             op_gap=30.0)

    def chaos():
        yield cluster.sim.timeout(700.0)
        cluster.master().host.crash()
        yield cluster.sim.timeout(200.0)  # detection delay
        standby = cluster.add_host("standby", role="master")
        result = yield cluster.sim.process(
            cluster.coordinator.recover_master("m0", standby))
        return result

    chaos_process = cluster.sim.process(chaos())
    drain(cluster, processes + [chaos_process])
    completed = sum(1 for r in history.records if not r.is_pending)
    assert completed >= 4 * 20 * 0.8  # most ops survived the crash
    check_linearizable(history)


@pytest.mark.parametrize("seed", [5, 6])
def test_linearizable_across_double_crash(seed):
    cluster = curp_cluster(seed=seed, min_sync_batch=25)
    history = History()
    processes = run_workload(cluster, history, n_clients=3,
                             ops_per_client=25, keys=["a", "b"],
                             op_gap=40.0)

    def chaos():
        for round_number in (1, 2):
            yield cluster.sim.timeout(600.0)
            cluster.master().host.crash()
            yield cluster.sim.timeout(150.0)
            standby = cluster.add_host(f"standby{round_number}",
                                       role="master")
            yield cluster.sim.process(
                cluster.coordinator.recover_master("m0", standby))

    chaos_process = cluster.sim.process(chaos())
    drain(cluster, processes + [chaos_process])
    check_linearizable(history)


@pytest.mark.parametrize("seed", [1, 2])
def test_increments_exactly_once_across_crash(seed):
    """INCR + crash + retry is the sharpest exactly-once test: any
    double-execution (RIFL failure) breaks the counter model."""
    cluster = curp_cluster(seed=seed, min_sync_batch=30)
    history = History()
    processes = run_workload(cluster, history, n_clients=3,
                             ops_per_client=15, keys=["c1", "c2"],
                             increments=True, op_gap=25.0)

    def chaos():
        yield cluster.sim.timeout(500.0)
        cluster.master().host.crash()
        yield cluster.sim.timeout(150.0)
        standby = cluster.add_host("standby", role="master")
        yield cluster.sim.process(
            cluster.coordinator.recover_master("m0", standby))

    chaos_process = cluster.sim.process(chaos())
    drain(cluster, processes + [chaos_process])
    check_linearizable(history, model=CounterModel)


def test_async_replication_loses_writes_negative_control():
    """Negative control: the Async baseline acknowledges before
    replicating, so a crash loses acknowledged writes and the checker
    must flag the history. Validates both the baseline's unsafety and
    the checker's teeth."""
    cluster = build_cluster(CurpConfig(
        f=3, mode=ReplicationMode.ASYNC, min_sync_batch=50,
        retry_backoff=20.0, rpc_timeout=150.0, max_attempts=40))
    history = History()
    client = HistoryClient(cluster.new_client(), history)
    # Acknowledged-but-unsynced write, then crash before any sync.
    cluster.run(client.update(Write("x", "precious")))
    assert cluster.master().unsynced_count == 1
    cluster.master().host.crash()
    standby = cluster.add_host("standby", role="master")
    cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=10_000_000.0)
    value = cluster.run(client.read("x"), timeout=10_000_000.0)
    assert value is None  # the acknowledged write is gone...
    with pytest.raises(LinearizabilityError):
        check_linearizable(history)  # ...and that is a safety violation


def test_curp_identical_scenario_is_safe():
    """The same scenario under CURP: the witness replay saves the
    acknowledged write."""
    cluster = curp_cluster(min_sync_batch=50)
    history = History()
    client = HistoryClient(cluster.new_client(), history)
    cluster.run(client.update(Write("x", "precious")))
    assert cluster.master().unsynced_count == 1
    cluster.master().host.crash()
    standby = cluster.add_host("standby", role="master")
    cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=10_000_000.0)
    value = cluster.run(client.read("x"), timeout=10_000_000.0)
    assert value == "precious"
    check_linearizable(history)
