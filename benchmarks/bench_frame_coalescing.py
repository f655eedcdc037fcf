"""Frame coalescing: the per-message floor, measured (ISSUE 4).

A committed CURP update at f = 3 costs ~8 wire messages in a
closed-loop run: the 1 + f request fan-out plus the 1 + f replies
(plus amortized sync/gc traffic) — the protocol floor
``docs/PERFORMANCE.md`` names after the PR 3 overhaul.  Commutative
updates complete independently in any order, so a client may keep
``depth`` of them in flight; with ``CurpConfig.frame_coalescing`` a
wave's same-instant RPCs to each destination then share one NIC frame
and the floor drops to ~2 × (1 + f) / depth transmissions per update.

The grid: frames on/off × f ∈ {1, 3} × witnesses colocated with
backups (Figure 2) vs spread on their own hosts.  Runs are fixed-wave
(identical op sequences), so the messages-per-update delta is a pure
transport effect; wall-clock events/s shows the Python-level win from
dispatching one delivery instead of ``depth``.

Acceptance (ISSUE 4): coalesced messages-per-update ≤ 4 at f = 3
(from ~8).  ``tools/bench_snapshot.py`` records the series and
``tools/bench_compare.py`` gates ``rpc.messages_per_update``.
"""

from __future__ import annotations

import dataclasses
import time

from benchmarks.conftest import run_once
from repro.baselines import curp_config
from repro.harness.builder import build_cluster
from repro.metrics import format_table
from repro.workload import run_pipelined_loop
from repro.workload.ycsb import YcsbWorkload

#: write-only: every op pays the full 1 + f fan-out; the key space is
#: large enough that within-wave conflicts are rare
FRAME_WORKLOAD = YcsbWorkload(name="frame-writes", read_fraction=0.0,
                              item_count=10_000, value_size=100,
                              distribution="uniform")

#: updates in flight per client wave — the batching the transport packs
PIPELINE_DEPTH = 4


def coalescing_run(f: int, coalescing: bool, colocated: bool = False,
                   n_clients: int = 4, waves: int = 60,
                   depth: int = PIPELINE_DEPTH, seed: int = 7) -> dict:
    """One fixed-wave pipelined run; virtual-time results per seed are
    deterministic, wall clock measures the transport's Python cost."""
    config = dataclasses.replace(curp_config(f),
                                 frame_coalescing=coalescing)
    started = time.perf_counter()
    cluster = build_cluster(config, seed=seed,
                            colocate_witnesses=colocated)
    result = run_pipelined_loop(cluster, FRAME_WORKLOAD,
                                n_clients=n_clients, waves=waves,
                                depth=depth)
    cluster.settle(1_000.0)
    elapsed = time.perf_counter() - started
    updates = sum(client.completed_updates for client in cluster.clients)
    stats = cluster.network.stats
    return {
        "operations": result["operations"],
        "updates": updates,
        "messages_per_update": stats.messages_per_update(updates),
        "messages_sent": stats.messages_sent,
        "payloads_sent": stats.payloads_sent,
        "frames_sent": stats.frames_sent,
        "seconds": elapsed,
        "events_per_sec": cluster.sim.processed_events / elapsed,
    }


def coalescing_series(scale: float = 1.0) -> dict:
    """The BENCH_core.json grid: frames on/off × f × witness placement."""
    waves = max(int(60 * scale), 10)
    series = {}
    for f in (1, 3):
        for colocated in (False, True):
            placement = "colocated" if colocated else "spread"
            on = coalescing_run(f, True, colocated=colocated, waves=waves)
            off = coalescing_run(f, False, colocated=colocated, waves=waves)
            series[f"f{f}_{placement}"] = {
                "messages_per_update": round(on["messages_per_update"], 2),
                "messages_per_update_off": round(
                    off["messages_per_update"], 2),
                "message_reduction": round(
                    off["messages_sent"] / max(on["messages_sent"], 1), 2),
                "events_per_sec": round(on["events_per_sec"]),
                "events_per_sec_off": round(off["events_per_sec"]),
            }
    return series


# ----------------------------------------------------------------------
# pytest entry points (CI smoke pass)
# ----------------------------------------------------------------------
def test_frame_coalescing_floor_f3(benchmark, scale):
    """The acceptance number: ≤ 4 messages/update at f = 3 coalesced."""
    def experiment():
        on = coalescing_run(3, True, waves=max(int(60 * scale), 10))
        off = coalescing_run(3, False, waves=max(int(60 * scale), 10))
        return (on, off), None
    (on, off), _ = run_once(benchmark, experiment)
    print(f"\nframe coalescing f=3: {on['messages_per_update']:.2f} "
          f"messages/update coalesced vs {off['messages_per_update']:.2f} "
          f"off ({off['messages_sent']:,} -> {on['messages_sent']:,} "
          f"transmissions)")
    benchmark.extra_info.update({
        "messages_per_update": round(on["messages_per_update"], 2),
        "messages_per_update_off": round(off["messages_per_update"], 2),
    })
    # Fixed-wave runs commit the same op count either way (exact
    # payload equality is NOT asserted: with several clients the
    # within-instant op mix can shift between frame modes, the PR 3
    # contention caveat)...
    assert on["operations"] == off["operations"]
    # ...but the coalesced run meets the ISSUE 4 floor target.
    assert on["messages_per_update"] <= 4.0
    assert off["messages_per_update"] > 6.0  # the old floor, for contrast


def test_frame_coalescing_floor_f1(benchmark, scale):
    def experiment():
        return coalescing_run(1, True, waves=max(int(60 * scale), 10)), None
    on, _ = run_once(benchmark, experiment)
    print(f"\nframe coalescing f=1: {on['messages_per_update']:.2f} "
          f"messages/update coalesced")
    benchmark.extra_info.update(
        {"messages_per_update": round(on["messages_per_update"], 2)})
    assert on["messages_per_update"] <= 2.0  # 2 * (1 + 1) / depth + sync


def test_frame_coalescing_grid(benchmark, scale):
    series, _ = run_once(benchmark, lambda: (coalescing_series(scale), None))
    rows = [[key,
             point["messages_per_update"],
             point["messages_per_update_off"],
             f"{point['message_reduction']}x"]
            for key, point in series.items()]
    print("\n" + format_table(
        ["config", "msgs/update (frames)", "msgs/update (off)",
         "reduction"], rows))
    benchmark.extra_info.update(series)
    for point in series.values():
        assert point["messages_per_update"] < point["messages_per_update_off"]
