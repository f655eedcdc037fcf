#!/usr/bin/env python
"""Turning a Redis cache into a durable store without losing its speed
(the paper's §5.4 experiment).

Act 1 — three servers: stock non-durable Redis, fsync-always durable
Redis, and CURP-Redis (witnesses + background fsync).  The demo
measures SET latency on each, then crashes each server and shows which
acknowledged writes survive.

A SET on the wire when the CURP-Redis server crashes is resent with its
RpcId once the server is back, and lands once.

Act 2 — the same bargain on the full CURP cluster with the segmented
write-ahead log enabled (docs/STORAGE.md): every backup append now
pays modeled disk time, segments rotate and the cleaner compacts them
in the background — yet update latency stays on the 1-RTT witness
path, and a crash recovers via partitioned fast recovery.

Run:  python examples/redis_durability.py
"""

from repro.core.config import CurpConfig, ReplicationMode, StorageProfile
from repro.harness import build_cluster
from repro.harness.redis import build_redis_cluster
from repro.harness.profiles import REDIS_PROFILE
from repro.kvstore import Write
from repro.metrics import LatencyRecorder, format_table
from repro.redislike.server import DurabilityMode


def measure(mode: DurabilityMode, n_witnesses: int, n_ops: int = 300):
    cluster = build_redis_cluster(mode, n_witnesses=n_witnesses,
                                  profile=REDIS_PROFILE, seed=11)
    client = cluster.new_client(collect_outcomes=False)
    recorder = LatencyRecorder()

    def script():
        rng = cluster.sim.rng
        for i in range(n_ops):
            key = f"user{rng.randrange(100_000)}"
            started = cluster.sim.now
            yield from client.set(key, "x" * 100)
            recorder.record(cluster.sim.now - started)
    cluster.run(cluster.sim.process(script()), timeout=1e9)
    return cluster, client, recorder


def crash_test(cluster, client) -> tuple[int, int]:
    """Write 10 acknowledged keys, crash, recover, count survivors."""
    acked = []

    def script():
        for i in range(10):
            yield from client.set(f"precious{i}", f"v{i}")
            acked.append(f"precious{i}")
    cluster.run(cluster.sim.process(script()), timeout=1e9)
    cluster.server.host.crash()
    cluster.server.host.restart()
    cluster.run(cluster.sim.process(cluster.server.recover()), timeout=1e9)
    survived = sum(1 for key in acked
                   if cluster.server.store.get_string(key) is not None)
    return len(acked), survived


def restart_demo() -> None:
    """A SET in flight when the CURP-Redis server crashes: the client
    resends it with its RpcId after the deadline, and the restarted
    server (which replayed it from the witness) answers it once."""
    cluster = build_redis_cluster(DurabilityMode.CURP, n_witnesses=1,
                                  profile=REDIS_PROFILE, seed=11)
    client = cluster.new_client()
    server = cluster.server
    command = cluster.sim.process(client.set("inflight", "v"))
    cluster.sim.run(until=cluster.sim.now + 1.0)   # on the wire
    server.host.crash()
    cluster.sim.run(until=cluster.sim.now + 1_000.0)
    server.host.restart()
    cluster.run(cluster.sim.process(server.recover()), timeout=1e9)
    outcome = cluster.run(command, timeout=1e9)
    print(f"\nCURP-Redis, a SET in flight across a server restart: "
          f"acknowledged after {outcome.attempts} attempts, stored "
          f"{server.store.get_string('inflight')!r} from "
          f"{len(server.aof.durable_entries())} AOF entry")


def wal_demo() -> None:
    """Act 2: the kvstore WAL path — durable segments under CURP."""
    storage = StorageProfile(enabled=True, segment_size=32,
                             append_time=0.5, rotation_time=20.0,
                             read_entry_time=0.3,
                             compaction_interval=2_000.0,
                             compaction_live_ratio=0.6)
    config = CurpConfig(f=3, mode=ReplicationMode.CURP, min_sync_batch=16,
                        idle_sync_delay=100.0, rpc_timeout=5_000.0,
                        storage=storage)
    cluster = build_cluster(config, n_masters=3, seed=11)
    client = cluster.new_client()
    recorder = LatencyRecorder()

    def script():
        for i in range(300):
            started = cluster.sim.now
            # 20 hot keys → constant overwrites → segments go dead
            yield from client.update(Write(f"hot{i % 20}", i))
            recorder.record(cluster.sim.now - started)
    cluster.run(cluster.sim.process(script()), timeout=1e9)
    cluster.settle(10_000.0)

    backup = next(iter(cluster.coordinator.backup_servers.values()))
    stats = backup.stats
    print(f"\nsegmented WAL on {len(cluster.coordinator.backup_servers)} "
          f"backups (segment_size={storage.segment_size}):")
    print(f"  appended {stats.entries_appended} entries, sealed "
          f"{stats.segments_sealed} segments, cleaner compacted "
          f"{stats.segments_cleaned} of them "
          f"({stats.payloads_reclaimed} dead payloads reclaimed)")
    print(f"  SET median {recorder.median:.1f} us / p90 "
          f"{recorder.percentile(90):.1f} us — the witness path hides "
          f"the disk")

    m0_keys = [f"hot{i}" for i in range(20)
               if cluster.shard_for(f"hot{i}") == "m0"][:5]

    def stragglers():
        # a few speculative (not-yet-synced) writes right before the
        # crash: only m0's witnesses hold them
        for i, key in enumerate(m0_keys):
            yield from client.update(Write(key, f"straggler{i}"))
    cluster.run(cluster.sim.process(stragglers()), timeout=1e9)
    cluster.master("m0").host.crash()
    started = cluster.sim.now
    recovery = cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master_partitioned(
            "m0", ["m1", "m2"])), timeout=1e9)
    elapsed = cluster.sim.now - started
    print(f"  crash of m0 -> partitioned recovery onto m1+m2 in "
          f"{elapsed:.0f} us: {recovery['partitions']} partitions, "
          f"{recovery['witness_requests']} witnessed requests replayed "
          f"on top of the backup logs")
    survivors = sum(
        1 for i in range(20)
        if cluster.run(client.read(f"hot{i}"), timeout=1e9) is not None)
    print(f"  acknowledged hot keys surviving the crash: {survivors}/20")


def main() -> None:
    configs = [
        ("Original Redis (non-durable)", DurabilityMode.NONDURABLE, 0),
        ("Original Redis (durable)", DurabilityMode.DURABLE, 0),
        ("CURP (1 witness)", DurabilityMode.CURP, 1),
        ("CURP (2 witnesses)", DurabilityMode.CURP, 2),
    ]
    rows = []
    for label, mode, witnesses in configs:
        cluster, client, recorder = measure(mode, witnesses)
        acked, survived = crash_test(cluster, client)
        rows.append([label, recorder.median, recorder.percentile(90),
                     f"{survived}/{acked}"])
    print(format_table(
        ["system", "SET median (us)", "p90", "acked writes surviving crash"],
        rows, title="Redis durability vs latency (100 B SET)"))
    print("\nCURP delivers the durable column at (nearly) the non-durable "
          "row's\nlatency: fsyncs happen in the background, witnesses cover "
          "the gap.")
    restart_demo()
    wal_demo()


if __name__ == "__main__":
    main()
