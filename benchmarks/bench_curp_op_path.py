"""The CURP operation lifecycle, end to end, in wall-clock terms.

Committed-ops/s for the full client → master → witness → backup-sync
path at f ∈ {1, 3}: ``call_cb`` into a slotted ``QuorumEvent`` on the
client, continuation-passing update lifecycle on the master.  The
number is pure Python overhead per operation.
``tools/bench_snapshot.py`` records the series into
``BENCH_core.json``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.baselines import curp_config
from repro.harness.builder import build_cluster
from repro.workload import run_closed_loop
from repro.workload.ycsb import YcsbWorkload

#: write-only: every op takes the full 1 + f fan-out plus batched sync
OP_PATH_WORKLOAD = YcsbWorkload(name="op-path-writes", read_fraction=0.0,
                                item_count=10_000, value_size=100,
                                distribution="uniform")


def op_path_rate(f: int, duration: float = 4_000.0, n_clients: int = 8,
                 seed: int = 5) -> tuple[int, float, float]:
    """(committed ops, wall seconds, messages/update) for one run.

    The third element is the closed-loop per-message floor
    (``TrafficStats.messages_per_update``): ~2 × (1 + f) wire
    transmissions per committed update, plus amortized sync/gc — the
    number frame coalescing attacks (``bench_frame_coalescing.py``)."""
    started = time.perf_counter()
    cluster = build_cluster(curp_config(f), seed=seed)
    result = run_closed_loop(cluster, OP_PATH_WORKLOAD,
                             n_clients=n_clients, duration=duration,
                             warmup=500.0)
    elapsed = time.perf_counter() - started
    updates = sum(client.completed_updates for client in cluster.clients)
    return (result["operations"], elapsed,
            cluster.network.stats.messages_per_update(updates))


def op_path_series_one(f: int, scale: float = 1.0,
                       repeats: int = 1) -> dict:
    """Best-of-N ops/s for one f."""
    duration = 4_000.0 * scale
    best = 0.0
    for _ in range(repeats):
        ops, elapsed, messages_per_update = op_path_rate(
            f, duration=duration)  # messages/update: same every repeat
        best = max(best, ops / elapsed)
    return {
        "ops_per_sec": round(best),
        "messages_per_update": round(messages_per_update, 2),
    }


def op_path_series(scale: float = 1.0, repeats: int = 2) -> dict:
    """The BENCH_core.json series: f ∈ {1, 3}."""
    return {f"f{f}": op_path_series_one(f, scale=scale, repeats=repeats)
            for f in (1, 3)}


# ----------------------------------------------------------------------
# pytest entry points (CI smoke pass)
# ----------------------------------------------------------------------
def test_op_path_f1(benchmark, scale):
    series, _ = run_once(benchmark, lambda: (op_path_series_one(1, scale),
                                             None))
    print(f"\nCURP op path f=1: {series['ops_per_sec']:,} ops/s; "
          f"{series['messages_per_update']} messages/update")
    benchmark.extra_info.update(series)
    # 2 × (1 + f) wire transmissions per update plus amortized sync/gc
    assert 4.0 <= series["messages_per_update"] < 5.0


def test_op_path_f3(benchmark, scale):
    series, _ = run_once(benchmark, lambda: (op_path_series_one(3, scale),
                                             None))
    print(f"\nCURP op path f=3: {series['ops_per_sec']:,} ops/s; "
          f"{series['messages_per_update']} messages/update")
    benchmark.extra_info.update(series)
    # The closed-loop floor the coalescing bench cuts: ~8 at f = 3.
    assert 6.0 < series["messages_per_update"] < 10.0
