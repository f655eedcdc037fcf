"""Scale-out: aggregate committed-ops throughput vs shard count.

CURP's commutative fast path has no cross-key coordination, so
committed-update throughput should scale near-linearly as tablets are
spread over more masters (each with its own backup + witness set) —
the same privatize-then-reconcile shape as parallel commutative
updates in shared-memory settings.

Acceptance (ISSUE 2): >= 2.5x aggregate throughput at 4 shards vs 1.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.baselines import curp_config
from repro.harness.builder import build_cluster
from repro.harness.profiles import RAMCLOUD_PROFILE
from repro.metrics import format_table
from repro.workload import run_closed_loop
from repro.workload.ycsb import YcsbWorkload

#: write-only over a key space big enough that witness commutativity
#: rejections are rare
SCALEOUT_WORKLOAD = YcsbWorkload(name="scaleout-writes", read_fraction=0.0,
                                 item_count=20_000, value_size=100,
                                 distribution="uniform")


def scaleout_throughput(shard_counts=(1, 2, 4), n_clients=24,
                        duration=1_500.0, seed=7) -> dict:
    """Aggregate committed-ops throughput per shard count.

    The client pool is fixed while shards vary, so the sweep measures
    how far the same offered load spreads: with one shard the master's
    dispatch thread saturates; every added shard adds dispatch + worker
    capacity.
    """
    series = {}
    for n_shards in shard_counts:
        cluster = build_cluster(curp_config(3), profile=RAMCLOUD_PROFILE,
                                n_masters=n_shards, seed=seed)
        result = run_closed_loop(cluster, SCALEOUT_WORKLOAD,
                                 n_clients=n_clients, duration=duration,
                                 warmup=300.0)
        stats = cluster.total_master_stats()
        series[n_shards] = {
            "throughput": result["throughput"],
            "operations": result["operations"],
            "gc_rpcs": stats.gc_rpcs,
            "syncs": stats.syncs,
            "speculative_replies": stats.speculative_replies,
        }
    return series


def test_scaleout_shards(benchmark, scale):
    shard_counts = (1, 2, 4) if scale <= 1 else (1, 2, 4, 8)
    n_clients = 24 if scale <= 1 else 32
    duration = 1_500.0 * min(scale, 4)

    series = run_once(benchmark, lambda: scaleout_throughput(
        shard_counts, n_clients, duration))

    rows = [[n, round(point["throughput"]),
             round(point["throughput"] / series[1]["throughput"], 2),
             point["gc_rpcs"], point["syncs"]]
            for n, point in series.items()]
    print()
    print(format_table(
        ["shards", "committed ops/s", "speedup", "gc rpcs", "syncs"], rows,
        title="Scale-out — aggregate write throughput vs shard count"))

    # Tentpole acceptance: >= 2.5x aggregate throughput at 4 shards.
    speedup_4 = series[4]["throughput"] / series[1]["throughput"]
    assert speedup_4 >= 2.5, f"4-shard speedup only {speedup_4:.2f}x"
    benchmark.extra_info["speedup_4_shards"] = speedup_4
