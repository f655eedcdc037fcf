"""Chaos testing: random failure storms against a CURP cluster.

A seeded "monkey" crashes/restarts witnesses and backups, partitions
and heals links, drops messages, and periodically crashes+recovers the
master — while instrumented clients run a mixed workload.  After the
storm: every per-client history is linearizable and all acknowledged
data is durable on the final master.

These are the tests that catch cross-feature interactions no targeted
test thinks to write (witness replacement racing gc, fencing racing a
sync retry, ...).

Set ``CHAOS_SEEDS`` (comma- or space-separated ints, e.g.
``CHAOS_SEEDS="101,102,103"``) to sweep *extra* seeds on top of each
test's defaults — the nightly/manual CI knob; the default matrix stays
fast without it.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import FailureDetector
from repro.core.client import ClientGaveUp
from repro.core.config import CurpConfig, ReplicationMode, StorageProfile
from repro.core.transactions import (
    TransactionAborted,
    TransactionInDoubt,
    _abort_backoff,
)
from repro.harness import build_cluster
from repro.kvstore import Delete, Increment, MultiWrite, Read, Write
from repro.net.faults import FaultPlan, GrayHost, GrayLink, HostFlap
from repro.verify import (
    History,
    HistoryClient,
    RecordedTransaction,
    TxnTrace,
    audit_atomicity,
    check_linearizable,
)


def chaos_seeds(*defaults: int) -> list[int]:
    """The test's default seeds plus any from ``CHAOS_SEEDS``."""
    seeds = list(defaults)
    for token in os.environ.get("CHAOS_SEEDS", "").replace(",", " ").split():
        seeds.append(int(token))
    return seeds


def build_chaos_cluster(seed, n_masters=1):
    config = CurpConfig(f=3, mode=ReplicationMode.CURP, min_sync_batch=8,
                        idle_sync_delay=150.0, retry_backoff=30.0,
                        rpc_timeout=200.0, max_attempts=100)
    return build_cluster(config, seed=seed, drop_rate=0.01,
                         n_masters=n_masters)


def monkey(cluster, rounds: int, gap: float):
    """Generator: one failure event per round, seeded."""
    rng = cluster.sim.rng
    standby_counter = [0]
    for round_number in range(rounds):
        yield cluster.sim.timeout(rng.uniform(gap * 0.5, gap * 1.5))
        roll = rng.random()
        if roll < 0.30:
            # Witness bounce (NVM keeps its data).
            name = cluster.witness_hosts["m0"][
                rng.randrange(len(cluster.witness_hosts["m0"]))]
            host = cluster.network.hosts[name]
            host.crash()
            yield cluster.sim.timeout(rng.uniform(50.0, 300.0))
            host.restart()
        elif roll < 0.55:
            # Backup bounce (durable storage).
            name = cluster.backup_hosts["m0"][
                rng.randrange(len(cluster.backup_hosts["m0"]))]
            host = cluster.network.hosts[name]
            host.crash()
            yield cluster.sim.timeout(rng.uniform(50.0, 300.0))
            host.restart()
        elif roll < 0.75:
            # Transient partition between the master and one peer.
            peers = (cluster.backup_hosts["m0"]
                     + cluster.witness_hosts["m0"])
            peer = peers[rng.randrange(len(peers))]
            master_host = cluster.coordinator.masters["m0"].host
            cluster.network.partition(master_host, peer)
            yield cluster.sim.timeout(rng.uniform(100.0, 400.0))
            cluster.network.heal(master_host, peer)
        else:
            # Master crash + full recovery.
            cluster.master().host.crash()
            yield cluster.sim.timeout(100.0)
            standby_counter[0] += 1
            standby = cluster.add_host(
                f"chaos-standby{standby_counter[0]}", role="master")
            yield cluster.sim.process(
                cluster.coordinator.recover_master("m0", standby))


@pytest.mark.parametrize("seed", chaos_seeds(11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                                         21, 22))
def test_chaos_storm_stays_linearizable(seed):
    # Incarnation-guarded continuations across crashes, and message
    # loss under drops and partitions, are the risky parts.
    cluster = build_chaos_cluster(seed)
    history = History()
    keys = ["a", "b", "c", "d"]
    processes = []
    for index in range(3):
        client = HistoryClient(cluster.new_client(collect_outcomes=False),
                               history)

        def script(client=client, index=index):
            rng = cluster.sim.rng
            for op_number in range(20):
                key = keys[rng.randrange(len(keys))]
                roll = rng.random()
                if roll < 0.45:
                    yield from client.update(
                        Write(key, f"c{index}-{op_number}"))
                elif roll < 0.55:
                    yield from client.update(Increment(f"n{key}", 1))
                else:
                    yield from client.read(key)
                yield cluster.sim.timeout(rng.uniform(0, 60.0))
        processes.append(client.client.host.spawn(script(), name="load"))

    chaos_process = cluster.sim.process(monkey(cluster, rounds=6,
                                               gap=400.0))
    deadline = cluster.sim.now + 50_000_000.0
    while not all(p.triggered for p in processes + [chaos_process]):
        if cluster.sim.now > deadline or not cluster.sim.step():
            break
    assert all(p.triggered for p in processes), "clients stuck in chaos"
    completed = sum(1 for r in history.records if not r.is_pending)
    assert completed >= 3 * 20 * 0.7, "too few ops survived the storm"
    check_linearizable(history)


@pytest.mark.parametrize("seed", chaos_seeds(*range(71, 101)))
def test_chaos_storm_multi_key_stays_linearizable(seed):
    """The same storm over two-key MultiWrites and Deletes: the checker
    searches each multi-key write as one atomic step of the component
    its keys join, so a recovery that replays half of one is caught."""
    cluster = build_chaos_cluster(seed)
    history = History()
    keys = ["a", "b", "c", "d"]
    processes = []
    for index in range(3):
        client = HistoryClient(cluster.new_client(collect_outcomes=False),
                               history)

        def script(client=client, index=index):
            rng = cluster.sim.rng
            for op_number in range(20):
                first, second = rng.sample(keys, 2)
                value = f"c{index}-{op_number}"
                roll = rng.random()
                if roll < 0.25:
                    yield from client.update(Write(first, value))
                elif roll < 0.45:
                    yield from client.update(MultiWrite(
                        ((first, value), (second, value))))
                elif roll < 0.55:
                    yield from client.update(Delete(first))
                elif roll < 0.65:
                    yield from client.update(Increment(f"n{first}", 1))
                else:
                    yield from client.read(first)
                yield cluster.sim.timeout(rng.uniform(0, 60.0))
        processes.append(client.client.host.spawn(script(), name="load"))

    chaos_process = cluster.sim.process(monkey(cluster, rounds=6,
                                               gap=400.0))
    deadline = cluster.sim.now + 50_000_000.0
    while not all(p.triggered for p in processes + [chaos_process]):
        if cluster.sim.now > deadline or not cluster.sim.step():
            break
    assert all(p.triggered for p in processes), "clients stuck in chaos"
    completed = sum(1 for r in history.records if not r.is_pending)
    assert completed >= 3 * 20 * 0.7, "too few ops survived the storm"
    assert {"multiwrite", "delete"} <= {r.kind for r in history.records}
    check_linearizable(history)


@pytest.mark.parametrize("seed", chaos_seeds(31, 32, 33, 34, 35, 36, 37, 38))
def test_chaos_crash_source_master_mid_migration(seed):
    """ISSUE 5 storm: while clients hammer a hot tablet, the
    coordinator migrates it — and the *source* master crashes in the
    middle of the migration, is recovered onto a standby, and the
    migration retry loop must converge on the new host.  Acknowledged
    writes survive (witness caches are no longer cleared mid-move) and
    the global history stays linearizable."""
    cluster = build_chaos_cluster(seed, n_masters=2)
    hot_keys = [f"key-{i}" for i in range(200)
                if cluster.shard_for(f"key-{i}") == "m0"][:6]
    history = History()
    processes = []
    for index in range(3):
        client = HistoryClient(cluster.new_client(collect_outcomes=False),
                               history)

        def script(client=client, index=index):
            rng = cluster.sim.rng
            for op_number in range(25):
                key = hot_keys[rng.randrange(len(hot_keys))]
                roll = rng.random()
                if roll < 0.55:
                    yield from client.update(
                        Write(key, f"c{index}-{op_number}"))
                else:
                    yield from client.read(key)
                yield cluster.sim.timeout(rng.uniform(0, 60.0))
        processes.append(client.client.host.spawn(script(), name="load"))

    migration_done = []

    def storm():
        from repro.core.recovery import RecoveryFailed
        from repro.kvstore import key_hash as kh
        rng = cluster.sim.rng
        yield cluster.sim.timeout(300.0)
        lo, hi = sorted(cluster.coordinator.masters["m0"].owned_ranges)[0]
        cut = max(kh(k) for k in hot_keys) + 1  # hot keys all in [lo,cut)
        migrate = cluster.sim.process(
            cluster.coordinator.migrate("m0", "m1", lo, cut))
        # Crash the source mid-migration...
        yield cluster.sim.timeout(rng.uniform(5.0, 120.0))
        cluster.master("m0").host.crash()
        yield cluster.sim.timeout(150.0)
        # ...recover it onto a standby...
        standby = cluster.add_host("mid-migration-standby", role="master")
        yield cluster.sim.process(
            cluster.coordinator.recover_master("m0", standby))
        # ...and wait out the migration (retried once if the crash made
        # this round fail outright).
        try:
            yield migrate
        except RecoveryFailed:
            yield cluster.sim.process(
                cluster.coordinator.migrate("m0", "m1", lo, cut))
        migration_done.append(True)

    storm_process = cluster.sim.process(storm())
    deadline = cluster.sim.now + 50_000_000.0
    while not all(p.triggered for p in processes + [storm_process]):
        if cluster.sim.now > deadline or not cluster.sim.step():
            break
    assert all(p.triggered for p in processes), "clients stuck in chaos"
    assert storm_process.triggered and migration_done
    # The hot tablet ended up on m1 and the map is still a partition.
    assert {cluster.shard_for(k) for k in hot_keys} == {"m1"}
    assert cluster.shard_map.covers_full_range()
    completed = sum(1 for r in history.records if not r.is_pending)
    assert completed >= 3 * 25 * 0.7, "too few ops survived the storm"
    check_linearizable(history)
    # Durability audit: every key with an acknowledged write is still
    # served (with some acknowledged value) by the new owner.
    reader = cluster.new_client()
    for key in hot_keys:
        acked = [r.op.value for r in history.records
                 if not r.is_pending and r.kind == "write" and r.key == key]
        if acked:
            value = cluster.run(reader.read(key), timeout=10_000_000.0)
            assert value is not None, f"{key}: all acknowledged writes lost"


@pytest.mark.parametrize("seed", chaos_seeds(41, 42, 43, 44, 45, 46, 47, 48))
def test_chaos_partitioned_recovery_with_storage(seed):
    """ISSUE 7 storm: with the segmented-WAL storage model *enabled*
    (every backup append and recovery read gated by a virtual disk),
    witnesses and backups bounce while clients run — then the master of
    shard m0 crashes and is recovered by *partitioning* its tablets
    across m1 and m2.  Clients riding through the recovery must
    re-route to the new owners, the history must stay linearizable, and
    every acknowledged write must survive on whichever shard now owns
    its key."""
    storage = StorageProfile(enabled=True, segment_size=16,
                             append_time=0.05, rotation_time=0.5,
                             read_entry_time=0.05)
    config = CurpConfig(f=3, mode=ReplicationMode.CURP, min_sync_batch=8,
                        idle_sync_delay=150.0, retry_backoff=30.0,
                        rpc_timeout=200.0, max_attempts=100,
                        storage=storage)
    cluster = build_cluster(config, seed=seed, drop_rate=0.01, n_masters=3)
    keys = [f"key-{i}" for i in range(12)]
    history = History()
    processes = []
    acked: dict[str, str] = {}
    for index in range(3):
        client = HistoryClient(cluster.new_client(collect_outcomes=False),
                               history)

        def script(client=client, index=index):
            rng = cluster.sim.rng
            for op_number in range(25):
                key = keys[rng.randrange(len(keys))]
                if rng.random() < 0.6:
                    value = f"c{index}-{op_number}"
                    outcome = yield from client.update(Write(key, value))
                    if outcome is not None:
                        acked[key] = value
                else:
                    yield from client.read(key)
                yield cluster.sim.timeout(rng.uniform(0, 80.0))
        processes.append(client.client.host.spawn(script(), name="load"))

    def storm():
        rng = cluster.sim.rng
        # Bounce a backup and a witness of m0 while its WAL is hot.
        for pool in (cluster.backup_hosts["m0"],
                     cluster.witness_hosts["m0"]):
            yield cluster.sim.timeout(rng.uniform(100.0, 300.0))
            host = cluster.network.hosts[pool[rng.randrange(len(pool))]]
            host.crash()
            yield cluster.sim.timeout(rng.uniform(50.0, 200.0))
            host.restart()
        yield cluster.sim.timeout(rng.uniform(100.0, 300.0))
        cluster.master("m0").host.crash()
        yield cluster.sim.timeout(150.0)
        yield cluster.sim.process(
            cluster.coordinator.recover_master_partitioned(
                "m0", ["m1", "m2"]))

    storm_process = cluster.sim.process(storm())
    deadline = cluster.sim.now + 50_000_000.0
    while not all(p.triggered for p in processes + [storm_process]):
        if cluster.sim.now > deadline or not cluster.sim.step():
            break
    assert all(p.triggered for p in processes), "clients stuck in chaos"
    assert storm_process.triggered
    assert "m0" not in cluster.coordinator.masters
    assert cluster.shard_map.covers_full_range()
    completed = sum(1 for r in history.records if not r.is_pending)
    assert completed >= 3 * 25 * 0.7, "too few ops survived the storm"
    check_linearizable(history)
    reader = cluster.new_client()
    for key, value in sorted(acked.items()):
        observed = cluster.run(reader.read(key), timeout=10_000_000.0)
        assert observed is not None, f"{key}: acknowledged write lost"


@pytest.mark.parametrize("seed", chaos_seeds(61, 63, 64, 65))
def test_chaos_crash_participant_mid_cross_shard_txn(seed):
    """ISSUE 10 storm: clients run cross-shard commutative sagas
    (§B.2) spanning both shards while the storm crashes a
    *participant* master mid-transaction and recovers it onto a
    standby.  Every per-key history must linearize (prepares recorded
    as writes, compensations as restoring writes, unknown-outcome
    prepares left pending) and the cross-key atomicity audit must find
    no torn commit and no aborted residue."""
    cluster = build_chaos_cluster(seed, n_masters=2)
    by_shard = {"m0": [], "m1": []}
    for i in range(400):
        key = f"key-{i}"
        shard = cluster.shard_for(key)
        if len(by_shard[shard]) < 2:
            by_shard[shard].append(key)
        if all(len(keys) == 2 for keys in by_shard.values()):
            break
    pairs = [(by_shard["m0"][0], by_shard["m1"][0]),
             (by_shard["m0"][1], by_shard["m1"][1])]
    all_keys = [key for pair in pairs for key in pair]
    history = History()
    traces = []
    processes = []
    for index in range(3):
        client = cluster.new_client(collect_outcomes=False)

        def txn_script(client=client, index=index):
            rng = cluster.sim.rng
            for op_number in range(8):
                k0, k1 = pairs[rng.randrange(len(pairs))]
                base = f"t{index}-{op_number}"
                for attempt in range(40):
                    txn = RecordedTransaction(
                        client, history, ordered=attempt > 0)
                    txn.write(k0, f"{base}-a")
                    txn.write(k1, f"{base}-b")
                    try:
                        yield from txn.commit()
                        traces.append(TxnTrace(txn, "committed"))
                        break
                    except TransactionInDoubt:
                        traces.append(TxnTrace(txn, "unknown"))
                        break
                    except ClientGaveUp:
                        # Gave up during the pre-prepare version reads:
                        # nothing staged anywhere — a clean abort.
                        traces.append(TxnTrace(txn, "aborted"))
                        break
                    except TransactionAborted:
                        traces.append(TxnTrace(txn, "aborted"))
                        yield from _abort_backoff(client, attempt)
                yield cluster.sim.timeout(rng.uniform(0, 80.0))
        processes.append(client.host.spawn(txn_script(), name="txn-load"))

    # One plain writer on the same keys: single-key blind writes mix
    # single- and cross-shard traffic, and supersede any pending marker
    # a given-up transaction left behind (the self-healing path).
    plain = HistoryClient(cluster.new_client(collect_outcomes=False),
                          history)

    def plain_script():
        rng = cluster.sim.rng
        for op_number in range(12):
            key = all_keys[rng.randrange(len(all_keys))]
            if rng.random() < 0.5:
                yield from plain.update(Write(key, f"p{op_number}"))
            else:
                yield from plain.read(key)
            yield cluster.sim.timeout(rng.uniform(0, 150.0))
    processes.append(plain.client.host.spawn(plain_script(), name="load"))

    def storm():
        rng = cluster.sim.rng
        yield cluster.sim.timeout(rng.uniform(200.0, 400.0))
        cluster.master("m0").host.crash()
        yield cluster.sim.timeout(150.0)
        standby = cluster.add_host("txn-standby", role="master")
        yield cluster.sim.process(
            cluster.coordinator.recover_master("m0", standby))

    storm_process = cluster.sim.process(storm())
    deadline = cluster.sim.now + 50_000_000.0
    while not all(p.triggered for p in processes + [storm_process]):
        if cluster.sim.now > deadline or not cluster.sim.step():
            break
    assert all(p.triggered for p in processes), "clients stuck in chaos"
    assert storm_process.triggered
    committed = [t for t in traces if t.status == "committed"]
    assert len(committed) >= 3 * 8 * 0.7, "too few transactions committed"
    # Post-storm reads pin the final value of every key in the history.
    for key in all_keys:
        record = history.begin(0, Read(key), cluster.sim.now)
        value = cluster.run(plain.client.read(key), timeout=10_000_000.0)
        history.complete(record, value, cluster.sim.now)
    check_linearizable(history)
    assert audit_atomicity(traces) == []


@pytest.mark.parametrize("seed", chaos_seeds(21, 22, 23, 24))
def test_chaos_storm_durability_audit(seed):
    """After the storm, every acknowledged write's final value (per the
    linearized order of each key's last completed write) must be
    readable from the final master."""
    cluster = build_chaos_cluster(seed)
    history = History()
    client = HistoryClient(cluster.new_client(collect_outcomes=False),
                           history)
    acked: dict[str, str] = {}

    def script():
        rng = cluster.sim.rng
        for op_number in range(30):
            key = f"k{rng.randrange(3)}"
            value = f"v{op_number}"
            outcome = yield from client.update(Write(key, value))
            if outcome is not None:
                acked[key] = value
            yield cluster.sim.timeout(rng.uniform(0, 80.0))
    load = client.client.host.spawn(script(), name="load")
    chaos_process = cluster.sim.process(monkey(cluster, rounds=5,
                                               gap=450.0))
    deadline = cluster.sim.now + 50_000_000.0
    while not all(p.triggered for p in [load, chaos_process]):
        if cluster.sim.now > deadline or not cluster.sim.step():
            break
    assert load.triggered
    # Single sequential writer: the last acknowledged write per key is
    # the freshest value; the final master must serve exactly it.
    for key, value in acked.items():
        observed = cluster.run(client.client.read(key),
                               timeout=10_000_000.0)
        assert observed == value, f"{key}: lost acknowledged {value!r}"
    check_linearizable(history)


@pytest.mark.parametrize("seed", chaos_seeds(51, 52, 53, 54))
def test_chaos_scripted_fault_plan_gray_witness(seed):
    """ISSUE 8 storm: a *scripted* :class:`FaultPlan` (deterministic,
    faults drawn from their own rng stream) lands a gray witness (pings
    fine, data path dead), a flapping backup, and a lossy gray link —
    while clients run a mixed workload and the watchdog runs with data
    probes.  The watchdog must convict and replace the gray witness
    mid-storm, and the history must stay linearizable."""
    cluster = build_chaos_cluster(seed)
    standby = cluster.add_host("chaos-w-standby", role="witness")
    detector = FailureDetector(cluster.coordinator, [],
                               interval=300.0, miss_threshold=2,
                               ping_timeout=150.0,
                               witness_standbys=[standby],
                               data_probes=True, gray_threshold=2)
    detector.start()
    managed = cluster.coordinator.masters["m0"]
    gray = managed.witnesses[0]
    plan = FaultPlan(events=(
        # The headline: witness 0 goes gray for good at t=500.
        GrayHost(host=gray, allow=("ping",), start=500.0),
        # Spice: a backup flaps (its storage is durable)...
        HostFlap(host=managed.backups[0], start=900.0, end=1_400.0),
        # ...and the master's gc link to witness 1 turns lossy.
        GrayLink(src=managed.host, dst=managed.witnesses[1],
                 loss_rate=0.3, start=700.0, end=2_500.0),
    ), seed=seed)
    cluster.inject_faults(plan)

    history = History()
    keys = ["a", "b", "c", "d"]
    processes = []
    for index in range(3):
        client = HistoryClient(cluster.new_client(collect_outcomes=False),
                               history)

        def script(client=client, index=index):
            rng = cluster.sim.rng
            for op_number in range(20):
                key = keys[rng.randrange(len(keys))]
                roll = rng.random()
                if roll < 0.45:
                    yield from client.update(
                        Write(key, f"c{index}-{op_number}"))
                elif roll < 0.55:
                    yield from client.update(Increment(f"n{key}", 1))
                else:
                    yield from client.read(key)
                yield cluster.sim.timeout(rng.uniform(0, 60.0))
        processes.append(client.client.host.spawn(script(), name="load"))

    deadline = cluster.sim.now + 50_000_000.0
    while not all(p.triggered for p in processes):
        if cluster.sim.now > deadline or not cluster.sim.step():
            break
    assert all(p.triggered for p in processes), "clients stuck in chaos"
    # Clients may finish before the conviction lands; the watchdog
    # keeps its own events alive, so step until the replacement.
    repair_deadline = cluster.sim.now + 60_000.0
    while detector.witnesses_replaced < 1 \
            and cluster.sim.now < repair_deadline:
        if not cluster.sim.step():
            break
    detector.stop()
    assert detector.gray_detected >= 1, "gray witness never convicted"
    assert detector.watched[gray].quarantined
    assert detector.witnesses_replaced >= 1
    assert gray not in managed.witnesses
    assert standby.name in managed.witnesses
    completed = sum(1 for r in history.records if not r.is_pending)
    assert completed >= 3 * 20 * 0.7, "too few ops survived the storm"
    check_linearizable(history)
