"""Partitioned crash recovery + WAL compaction benchmarks (ISSUE 7).

Two questions, both virtual-time (deterministic per seed):

1. **Recovery scaling** — RAMCloud's fast-recovery claim, reproduced
   on the CURP cluster: recovering a dead master's tablets onto *k*
   recovery masters in parallel (each backup scanning its stripe of
   the log once, replay + re-replication fanned across the cluster)
   should cut time-to-recover near-linearly in k.  Acceptance: ≥ 3x
   faster at 4 recovery masters than at 1, at the reference volume.
   The volume sweep shows the other axis: time grows with data volume
   at fixed k, with slope divided by k.

2. **Compaction pressure vs update-path tail latency** — the WAL
   cleaner competes with replication appends for each backup's single
   virtual disk.  In SYNC mode (the paper's "Original RAMCloud"
   baseline: reply after backup ack) cleaner passes land directly in
   the update tail; under CURP the 1-RTT witness path hides the same
   disk time — the paper's durability-for-free argument, now visible
   against a storage model that actually costs something.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.config import CurpConfig, ReplicationMode, StorageProfile
from repro.harness.builder import build_cluster
from repro.kvstore import Write, key_hash
from repro.metrics import format_table

#: reference storage model for the recovery series: replay dominates
#: (1 µs/entry) over striped reads (0.3 µs/entry across f=3 backups),
#: which is what makes partitioning pay (docs/STORAGE.md)
RECOVERY_STORAGE = dict(enabled=True, segment_size=64, append_time=0.5,
                        rotation_time=20.0, read_entry_time=0.3)

#: reference data volume (log entries on the dead master).  Not scaled
#: by REPRO_BENCH_SCALE: the whole series is ~0.1 s of wall clock, and
#: the ≥3x acceptance needs the volume to dominate fixed overheads.
REFERENCE_VOLUME = 2_000


def _keys_for_master(cluster, master_id: str, count: int) -> list[str]:
    """Deterministic keys hashing into ``master_id``'s tablet."""
    ranges = cluster.master(master_id).owned_ranges
    keys = []
    i = 0
    while len(keys) < count:
        key = f"k{i}"
        i += 1
        if any(lo <= key_hash(key) < hi for lo, hi in ranges):
            keys.append(key)
    return keys


def _loaded_cluster(n_entries: int, seed: int = 7, n_masters: int = 5):
    """A cluster with ``n_entries`` synced writes on m0."""
    config = CurpConfig(f=3, mode=ReplicationMode.CURP, min_sync_batch=16,
                        idle_sync_delay=100.0, retry_backoff=20.0,
                        rpc_timeout=5_000.0,
                        storage=StorageProfile(**RECOVERY_STORAGE))
    cluster = build_cluster(config, n_masters=n_masters, seed=seed)
    client = cluster.new_client()
    keys = _keys_for_master(cluster, "m0", n_entries)

    def load():
        for j, key in enumerate(keys):
            yield from client.update(Write(key, j))

    cluster.run(client.host.spawn(load(), name="load"), timeout=1e9)
    cluster.settle(500.0)
    return cluster


def _recover(cluster, recovery_masters) -> tuple[float, dict]:
    """Crash m0, run partitioned recovery, return (virtual µs, stats).
    The stripe reads and absorbs, whose replies wait on modeled disk
    time proportional to the volume, derive their deadlines from it
    (``StorageProfile.bulk_deadline``)."""
    cluster.master("m0").host.crash()
    start = cluster.sim.now
    stats = cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master_partitioned(
            "m0", recovery_masters)),
        timeout=1e9)
    return cluster.sim.now - start, stats


def recovery_scaling(n_entries: int = REFERENCE_VOLUME,
                     counts=(1, 2, 4), seed: int = 7) -> dict:
    """Time-to-recover vs recovery-master count at fixed volume."""
    out: dict = {"volume": n_entries, "by_masters": {}}
    for k in counts:
        cluster = _loaded_cluster(n_entries, seed=seed)
        masters = [f"m{i + 1}" for i in range(k)]
        elapsed, stats = _recover(cluster, masters)
        out["by_masters"][k] = {
            "time_to_recover": elapsed,
            "partitions": stats["partitions"],
            "log_end": stats["log_end"],
        }
    times = out["by_masters"]
    out["speedup_4_vs_1"] = (times[counts[0]]["time_to_recover"]
                             / times[counts[-1]]["time_to_recover"])
    out["time_to_recover"] = times[counts[-1]]["time_to_recover"]
    return out


def recovery_vs_volume(volumes=(500, 1_000, 2_000), k: int = 4,
                       seed: int = 7) -> dict:
    """Time-to-recover vs dead-master data volume at fixed k."""
    masters = [f"m{i + 1}" for i in range(k)]
    points = {}
    for volume in volumes:
        cluster = _loaded_cluster(volume, seed=seed)
        elapsed, _stats = _recover(cluster, masters)
        points[volume] = elapsed
    return {"recovery_masters": k, "by_volume": points}


# ---------------------------------------------------------------------------
# compaction pressure vs update tail latency
# ---------------------------------------------------------------------------

#: aggressive cleaning so several passes land inside a short run:
#: small segments, frequent wake-ups, hot overwrites → low live ratios
COMPACTION_STORAGE = dict(enabled=True, segment_size=32, append_time=0.5,
                          rotation_time=20.0, read_entry_time=0.3,
                          compaction_live_ratio=0.6)


def _update_latencies(mode: ReplicationMode, compaction_interval: float,
                      n_ops: int, seed: int = 3) -> dict:
    """Closed-loop hot-key overwrites; per-op latency percentiles."""
    storage = StorageProfile(compaction_interval=compaction_interval,
                             **COMPACTION_STORAGE)
    f = 3
    config = CurpConfig(f=f, mode=mode, min_sync_batch=8,
                        idle_sync_delay=100.0, rpc_timeout=5_000.0,
                        storage=storage)
    cluster = build_cluster(config, seed=seed)
    client = cluster.new_client()
    latencies: list[float] = []

    def load():
        for i in range(n_ops):
            start = cluster.sim.now
            yield from client.update(Write(f"h{i % 20}", i))
            latencies.append(cluster.sim.now - start)

    cluster.run(client.host.spawn(load(), name="load"), timeout=1e9)
    cluster.settle(10_000.0)
    latencies.sort()
    backup = next(iter(cluster.coordinator.backup_servers.values()))
    return {
        "p50": latencies[len(latencies) // 2],
        "p99": latencies[int(len(latencies) * 0.99)],
        "max": latencies[-1],
        "segments_cleaned": backup.stats.segments_cleaned,
        "payloads_reclaimed": backup.stats.payloads_reclaimed,
    }


def compaction_tail(n_ops: int = 600, interval: float = 2_000.0) -> dict:
    """SYNC-mode tail with the cleaner on vs off, CURP for contrast."""
    return {
        "sync_off": _update_latencies(ReplicationMode.SYNC, 0.0, n_ops),
        "sync_on": _update_latencies(ReplicationMode.SYNC, interval, n_ops),
        "curp_on": _update_latencies(ReplicationMode.CURP, interval, n_ops),
    }


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (CI perf smoke)
# ---------------------------------------------------------------------------

def test_recovery_scaling(benchmark, scale):
    series = run_once(benchmark, recovery_scaling)
    rows = [[k, round(point["time_to_recover"], 1), point["partitions"]]
            for k, point in series["by_masters"].items()]
    print()
    print(format_table(
        ["recovery masters", "time to recover (µs)", "partitions"], rows,
        title=f"Partitioned recovery @ {series['volume']} entries — "
              f"{series['speedup_4_vs_1']:.2f}x at 4 masters"))
    # ISSUE 7 acceptance: near-linear scaling in recovery-master count.
    assert series["speedup_4_vs_1"] >= 3.0, \
        f"4-master recovery only {series['speedup_4_vs_1']:.2f}x faster"
    benchmark.extra_info["speedup_4_vs_1"] = series["speedup_4_vs_1"]
    benchmark.extra_info["time_to_recover"] = series["time_to_recover"]


def test_recovery_vs_volume(benchmark, scale):
    series = run_once(benchmark, recovery_vs_volume)
    points = series["by_volume"]
    print()
    print(format_table(
        ["entries", "time to recover (µs)"],
        [[volume, round(elapsed, 1)] for volume, elapsed in points.items()],
        title=f"Recovery time vs volume @ {series['recovery_masters']} "
              f"recovery masters"))
    volumes = sorted(points)
    assert points[volumes[-1]] > points[volumes[0]], \
        "recovery time must grow with data volume"


def test_compaction_tail_latency(benchmark, scale):
    series = run_once(benchmark, compaction_tail)
    rows = [[label, round(point["p50"], 1), round(point["p99"], 1),
             round(point["max"], 1), point["segments_cleaned"],
             point["payloads_reclaimed"]]
            for label, point in series.items()]
    print()
    print(format_table(
        ["mode", "p50 µs", "p99 µs", "max µs", "segs cleaned",
         "payloads reclaimed"],
        rows, title="Hot-key overwrites vs WAL cleaner"))
    # The cleaner must actually run, and CURP's witness path must hide
    # the disk time the SYNC baseline exposes in its tail.
    assert series["sync_on"]["segments_cleaned"] > 0
    assert series["sync_on"]["max"] > series["sync_off"]["max"], \
        "cleaner passes should collide with SYNC-mode appends"
    assert series["curp_on"]["p99"] <= series["sync_on"]["p99"]
