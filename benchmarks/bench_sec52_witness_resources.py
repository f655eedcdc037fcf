"""§5.2: resource consumption by witness servers.

Paper numbers: a witness server handles 1270k records/s on one core;
memory is ~9 MB per master-witness pair (4096 × 2 KB slots); CURP
increases network traffic by ~75 % for 3-way replication (each request
additionally goes to 3 witnesses).

The same traffic counted in wire transmissions: a committed update
costs the 1 + f request fan-out plus the 1 + f replies, plus amortized
sync / gc traffic — ~4 messages at f = 1 and ~8 at f = 3, whether the
witnesses have their own hosts or share the backups' (Figure 2).
``tools/bench_snapshot.py`` records that grid in ``BENCH_core.json``'s
``messages_per_update`` section.
"""

from __future__ import annotations

import random

from benchmarks.conftest import run_once
from repro.baselines import curp_config
from repro.core.witness_cache import WitnessCache
from repro.harness.builder import build_cluster
from repro.harness.experiments import sec52_network_amplification
from repro.metrics import format_table
from repro.rifl import RpcId
from repro.workload import run_pipelined_loop
from repro.workload.ycsb import YcsbWorkload

#: write-only: every op pays the full 1 + f fan-out; the key space is
#: large enough that within-wave conflicts are rare
FLOOR_WORKLOAD = YcsbWorkload(name="floor-writes", read_fraction=0.0,
                              item_count=10_000, value_size=100,
                              distribution="uniform")


def test_witness_record_rate(benchmark):
    """Wall-clock micro-benchmark of the witness data structure: the
    record operation the paper sizes at ~0.8 µs of server CPU."""
    rng = random.Random(0)
    cache = WitnessCache(slots=4096, associativity=4)
    hashes = [rng.getrandbits(64) for _ in range(4096)]
    state = {"i": 0}

    def record_and_gc():
        i = state["i"]
        key_hash = hashes[i % len(hashes)]
        rpc_id = RpcId(1, i)
        cache.record([key_hash], rpc_id, "request")
        if i % 50 == 49:  # gc every 50 records, as masters do
            cache.gc_batch([(hashes[j % len(hashes)], RpcId(1, j))
                      for j in range(i - 49, i + 1)])
        state["i"] = i + 1
    benchmark(record_and_gc)


def test_witness_memory_footprint(benchmark):
    cache = run_once(benchmark,
                     lambda: WitnessCache(slots=4096, associativity=4))
    memory_mb = cache.memory_bytes(slot_size=2048) / 1e6
    print(f"\n§5.2 — witness memory per master-witness pair: "
          f"{memory_mb:.1f} MB (paper: ~9 MB)")
    assert 8.0 < memory_mb < 10.0


def test_network_amplification(benchmark, scale):
    n_ops = int(250 * scale)
    result = run_once(benchmark,
                      lambda: sec52_network_amplification(n_ops=n_ops))
    print()
    print(format_table(
        ["system", "payload copies/request", "wire bytes/request"],
        [["original (f=3)", result["original_copies"],
          result["original_bytes"]],
         ["curp (f=3)", result["curp_copies"], result["curp_bytes"]],
         ["amplification",
          f"+{result['amplification_copies'] * 100:.0f}%",
          f"+{result['amplification_bytes'] * 100:.0f}%"]],
        title="§5.2 — network traffic amplification (paper: +75% in "
              "payload copies)"))
    # The paper's accounting: 7 copies vs 4 = +75%.
    assert 0.6 < result["amplification_copies"] < 0.9
    # Wire bytes amplify less: batching amortizes per-RPC framing.
    assert 0.1 < result["amplification_bytes"] \
        < result["amplification_copies"]
    benchmark.extra_info["amplification_copies"] = \
        result["amplification_copies"]


def messages_per_update(f: int, colocated: bool, waves: int) -> float:
    """Wire transmissions per committed update in one fixed-wave run
    (4 pipelined clients, depth 4, seed 7); deterministic per seed."""
    cluster = build_cluster(curp_config(f), seed=7,
                            colocate_witnesses=colocated)
    run_pipelined_loop(cluster, FLOOR_WORKLOAD, n_clients=4, waves=waves,
                       depth=4)
    cluster.settle(1_000.0)
    updates = sum(client.completed_updates for client in cluster.clients)
    return cluster.network.stats.messages_per_update(updates)


def messages_per_update_series(scale: float = 1.0) -> dict:
    """The BENCH_core.json grid: f ∈ {1, 3} × witness placement."""
    waves = max(int(60 * scale), 10)
    series = {}
    for f in (1, 3):
        for placement, colocated in (("spread", False), ("colocated", True)):
            series[f"f{f}_{placement}"] = round(
                messages_per_update(f, colocated, waves), 2)
    return series


def test_messages_per_update_floor(benchmark, scale):
    series = run_once(benchmark,
                      lambda: messages_per_update_series(scale))
    print("\n" + format_table(["config", "messages/update"],
                              [[key, value] for key, value in series.items()],
                              title="§5.2 — wire messages per update"))
    benchmark.extra_info.update(series)
    for key, value in series.items():
        # 2 × (1 + f) transmissions per update plus amortized sync/gc
        if key.startswith("f1_"):
            assert 4.0 <= value < 5.0, key
        else:
            assert 6.0 < value < 10.0, key
