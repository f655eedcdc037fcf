"""Load-driven rebalancing: skewed-workload throughput, on vs off.

The paper evaluates under YCSB zipfian skew (θ=0.99, §5.3); at cluster
scale that skew concentrates on whichever shard the hot key-hash head
lands in, and the hot master's dispatch thread caps *aggregate*
throughput at roughly capacity / hot-share while the other masters
idle.  The rebalancer closes the loop: per-tablet load windows pulled
from the masters, the hot tablet split at a load-weighted hash point,
and the split-off half migrated to the coldest master — after which
the same offered load spreads over all shards.

``item_count=1975`` is chosen deliberately: the zipfian head's
scrambled placement puts ≈48% of the offered load on one of the four
even tablets (``shard_load_profile`` computes this in closed form), so
the rebalancing-off run is firmly hot-shard-bound.

Acceptance (ISSUE 5): aggregate throughput ≥ 1.5x with rebalancing on
vs off at zipfian θ=0.99 on 4 shards; the balanced run's hottest
per-shard share must drop below 0.32 (from ≈0.48).
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.baselines import curp_config
from repro.core.config import StorageProfile
from repro.harness.builder import build_cluster
from repro.harness.profiles import RAMCLOUD_PROFILE
from repro.metrics import format_table
from repro.workload import run_sharded_ycsb, shard_load_profile
from repro.workload.ycsb import YcsbWorkload

#: zipfian θ=0.99 writes whose hot head lands ~48% of offered load on
#: one of four even tablets (see module docstring)
SKEWED_WORKLOAD = YcsbWorkload(name="skewed-writes", read_fraction=0.0,
                               item_count=1975, value_size=100,
                               theta=0.99)

#: the modeled segment-transfer cost of a migration (PR 7 follow-on):
#: each moved entry charges ``migrate_entry_time`` on the source's
#: disk, so the speedup below is measured net of what rebalancing pays
#: to move the data — not against a free-migration fantasy.  The other
#: storage knobs stay off to keep the write path itself unchanged.
MIGRATE_STORAGE = StorageProfile(enabled=True, migrate_entry_time=0.5,
                                 append_time=0.0, rotation_time=0.0,
                                 read_entry_time=0.0)


def rebalance_comparison(n_shards=4, n_clients=40, duration=3_000.0,
                         warmup=2_500.0, seed=7,
                         interval=300.0, threshold=1.2,
                         min_ops=200) -> dict:
    """Run the skewed workload twice — static tablets vs rebalancer on
    — and report aggregate + per-shard numbers for both.

    ``warmup`` is long enough for several rebalance rounds, so the
    measured window compares steady states: the static even split vs
    the converged post-migration placement.  Virtual-time results are
    deterministic per seed.
    """
    out: dict = {}
    for label, enabled in (("off", False), ("on", True)):
        cluster = build_cluster(
            curp_config(3, storage=MIGRATE_STORAGE),
            profile=RAMCLOUD_PROFILE, n_masters=n_shards, seed=seed)
        if label == "off":
            out["offered_shares"] = shard_load_profile(
                SKEWED_WORKLOAD, cluster.shard_map)
        if enabled:
            cluster.start_rebalancer(interval=interval, threshold=threshold,
                                     min_ops=min_ops)
        result = run_sharded_ycsb(cluster, SKEWED_WORKLOAD,
                                  n_clients=n_clients, duration=duration,
                                  warmup=warmup)
        point = {
            "throughput": result["throughput"],
            "operations": result["operations"],
            "per_shard": result["per_shard"],
            "max_share": max(d["share"]
                             for d in result["per_shard"].values()),
            "tablets": len(cluster.shard_map.tablets()),
        }
        if enabled:
            stats = cluster.rebalancer.stats
            point.update(splits=stats.splits, migrations=stats.migrations,
                         keys_moved=stats.keys_moved,
                         rounds=stats.rounds)
        out[label] = point
    out["speedup"] = out["on"]["throughput"] / out["off"]["throughput"]
    return out


def test_rebalance_skewed_throughput(benchmark, scale):
    duration = 3_000.0 * min(scale, 4)

    def experiment():
        return rebalance_comparison(duration=duration)

    series = run_once(benchmark, experiment)

    rows = []
    for label in ("off", "on"):
        point = series[label]
        for shard, detail in point["per_shard"].items():
            rows.append([label, shard, detail["operations"],
                         round(detail["share"], 3),
                         round(detail["write"]["median"], 1),
                         round(detail["write"]["p99"], 1)])
    print()
    print(format_table(
        ["rebalance", "shard", "ops", "share", "write p50 µs",
         "write p99 µs"], rows,
        title="Skewed YCSB (zipfian θ=0.99, 4 shards) — per-shard load"))
    print(format_table(
        ["rebalance", "agg ops/s", "max share", "tablets", "splits",
         "migrations"],
        [["off", round(series["off"]["throughput"]),
          round(series["off"]["max_share"], 3),
          series["off"]["tablets"], 0, 0],
         ["on", round(series["on"]["throughput"]),
          round(series["on"]["max_share"], 3),
          series["on"]["tablets"], series["on"]["splits"],
          series["on"]["migrations"]]],
        title=f"Rebalancing on vs off — {series['speedup']:.2f}x aggregate"))

    # ISSUE 5 acceptance: ≥ 1.5x aggregate throughput, and the
    # balanced run actually balanced (hottest shard below 0.32 from
    # the offered ~0.48).
    assert series["speedup"] >= 1.5, \
        f"rebalancing speedup only {series['speedup']:.2f}x"
    assert series["on"]["max_share"] < 0.32, \
        f"hot share still {series['on']['max_share']:.2f} after rebalance"
    assert series["on"]["migrations"] >= 1
    offered_hot = max(series["offered_shares"].values())
    assert offered_hot >= 0.4, \
        "workload lost its skew — the bench no longer measures anything"
    benchmark.extra_info["speedup"] = series["speedup"]
    benchmark.extra_info["max_share_on"] = series["on"]["max_share"]
