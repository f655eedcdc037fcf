#!/usr/bin/env python
"""Snapshot the deterministic rows e2e has no workload for into
``BENCH_core.json``.

Usage (from the repository root)::

    python tools/bench_snapshot.py [--out BENCH_core.json]

Every row is virtual time or an exact count, so a snapshot repeats to
the digit on one Python major.minor, and ``tools/bench_compare.py``
gates every numeric row at 1% in either direction.  Nothing here is
timed: wall clock has one authority, ``benchmarks/e2e/run.py``.

- ``fig6_smoke``: a Figure 6-shaped closed loop (16 clients, CURP f=3,
  writes) — kernel events per committed op, the largest kernel queue
  seen at five slice boundaries (``heap_peak``), the bytes each
  committed op leaves allocated (``retained_bytes_per_op``) and the
  Python-level calls it makes (``py_calls_per_op``);
- ``ycsb_b_smoke``: the read path, a YCSB-B closed loop (16 clients,
  4 masters, 95 % reads) — kernel events, retained bytes and
  Python-level calls per completed op;
- ``ycsb_a_smoke``: the write path under skew, a YCSB-A closed loop
  (16 clients, one master, zipfian 0.99) — write p99, and the share
  and p50 of each way an update completes (fast / master-synced /
  client sync);
- ``messages_per_update``: wire messages per committed update at
  f ∈ {1, 3}, colocated vs spread witnesses
  (``benchmarks/bench_sec52_witness_resources.py``);
- ``redis_smoke`` / ``raft_smoke``: the two CURP backends no e2e
  workload reaches — Redis (§5.4) with one witness, and Raft (§A.2)
  at f = 1 and f = 2;
- ``scaleout``, ``rebalance``, ``overload``, ``recovery``,
  ``availability``, ``transactions``: the acceptance series of
  ``benchmarks/bench_scaleout_shards.py`` and the benches named after
  the other five.

CI runs this and uploads the JSON as an artifact; see docs/CI.md.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))


def _scaleout() -> dict:
    """Sharded throughput scaling at 1/2/4 shards."""
    from benchmarks.bench_scaleout_shards import scaleout_throughput

    series = scaleout_throughput(shard_counts=(1, 2, 4))
    return {
        "throughput_by_shards": {
            str(n): round(point["throughput"])
            for n, point in series.items()},
        "speedup_4_shards_vs_1": round(
            series[4]["throughput"] / series[1]["throughput"], 2),
    }


#: the fig6 smoke's measured window is read in this many equal slices
_FIG6_SLICES = 5


def _closed_loops(workload, n_masters: int = 1,
                  collect_outcomes: bool = False):
    """16 closed loops on CURP f=3 (``RAMCLOUD_PROFILE``, seed 2),
    started and warmed up: (cluster, loops)."""
    from repro.baselines import curp_config
    from repro.harness.builder import build_cluster
    from repro.harness.profiles import RAMCLOUD_PROFILE
    from repro.metrics.stats import LatencyRecorder
    from repro.workload.clients import ClosedLoopClient

    cluster = build_cluster(curp_config(3), profile=RAMCLOUD_PROFILE,
                            n_masters=n_masters, seed=2)
    latency = LatencyRecorder()
    loops = [ClosedLoopClient(
        client=cluster.new_client(collect_outcomes=collect_outcomes),
        stream=workload.generator(),
        write_latency=latency, read_latency=latency) for _ in range(16)]
    for loop in loops:
        loop.client.host.spawn(loop.loop(), name="workload")
    cluster.sim.run(until=cluster.sim.now + 800.0)  # warm-up
    return cluster, loops


def _fig6_cluster():
    """The fig6 smoke's cluster: one master, uniform writes."""
    from repro.workload.ycsb import YCSB_WRITE_ONLY

    return _closed_loops(YCSB_WRITE_ONLY)


def _ycsb_b_cluster():
    """The read-path smoke's cluster: YCSB-B (95 % reads, zipfian over
    100 k keys) on 4 masters."""
    from repro.workload.ycsb import YCSB_B, scaled

    return _closed_loops(scaled(YCSB_B, 100_000), n_masters=4)


def _fig6_smoke() -> dict:
    """One Figure 6-shaped closed loop: 16 clients, CURP f=3, writes.

    ``events_per_op`` is the kernel events dispatched per committed op
    inside a 10,000 µs window.  The window runs as five equal slices,
    and ``heap_peak`` is the largest ``sim.queue_length`` seen at a
    slice boundary: live work is a few dozen records, thousands means
    something parks a record per operation on the kernel's heap.
    ``retained_bytes_per_op`` comes from a second, shorter run under
    ``tracemalloc``, ``py_calls_per_op`` from a third under
    ``sys.setprofile``.
    """
    cluster, loops = _fig6_cluster()
    sim = cluster.sim
    window_start = sim.now
    events_before = sim.processed_events
    ops_before = sum(loop.operations for loop in loops)
    heap_peak = 0
    for i in range(1, _FIG6_SLICES + 1):
        sim.run(until=window_start + 10_000.0 * i / _FIG6_SLICES)
        heap_peak = max(heap_peak, sim.queue_length)
    operations = sum(loop.operations for loop in loops) - ops_before
    return {
        "events_per_op": round(
            (sim.processed_events - events_before) / operations, 3),
        "heap_peak": heap_peak,
        "retained_bytes_per_op": _retained_bytes_per_op(_fig6_cluster),
        "py_calls_per_op": _py_calls_per_op(_fig6_cluster),
    }


def _ycsb_b_smoke() -> dict:
    """The read path: a YCSB-B closed loop, 16 clients on 4 masters.

    ``events_per_op`` is the kernel events dispatched per completed op
    inside a 10,000 µs window; ``retained_bytes_per_op`` and
    ``py_calls_per_op`` are measured as for the fig6 smoke, each in a
    run of its own.  Four masters and their twelve witnesses make this
    the shape where per-witness and per-master bookkeeping shows.
    """
    cluster, loops = _ycsb_b_cluster()
    sim = cluster.sim
    events_before = sim.processed_events
    ops_before = sum(loop.operations for loop in loops)
    sim.run(until=sim.now + 10_000.0)
    operations = sum(loop.operations for loop in loops) - ops_before
    return {
        "events_per_op": round(
            (sim.processed_events - events_before) / operations, 3),
        "retained_bytes_per_op": _retained_bytes_per_op(_ycsb_b_cluster),
        "py_calls_per_op": _py_calls_per_op(_ycsb_b_cluster),
    }


def _ycsb_a_smoke() -> dict:
    """The write path under skew: a YCSB-A closed loop (16 clients,
    zipfian 0.99 over 100 k keys, one master).

    ``write_p99_us`` is over the updates completed inside a 20,000 µs
    window.  ``paths`` splits them by how each completed, read from
    ``UpdateOutcome``'s three flags: ``fast`` (1 RTT, every witness
    accepted), ``master_synced`` (the master synced before replying,
    §3.2.3) and ``client_sync`` (a witness rejected, so the client
    asked the master to sync its update, §3.2.1) — each path's share
    of the updates and its p50.
    """
    from repro.metrics.stats import percentile
    from repro.workload.ycsb import YCSB_A, scaled

    cluster, loops = _closed_loops(scaled(YCSB_A, 100_000),
                                   collect_outcomes=True)
    clients = [loop.client for loop in loops]
    for client in clients:
        client.outcomes.clear()
    cluster.sim.run(until=cluster.sim.now + 20_000.0)
    outcomes = [outcome for client in clients for outcome in client.outcomes]
    paths = {"fast": [], "master_synced": [], "client_sync": []}
    for outcome in outcomes:
        path = ("fast" if outcome.fast_path else "master_synced"
                if outcome.synced_by_master else "client_sync")
        paths[path].append(outcome.latency)
    return {
        "write_p99_us": round(percentile(
            sorted(outcome.latency for outcome in outcomes), 99.0), 2),
        "paths": {
            path: {"share": round(len(latencies) / len(outcomes), 4),
                   "p50_us": round(percentile(sorted(latencies), 50.0), 2)}
            for path, latencies in paths.items()},
    }


def _retained_bytes_per_op(make_cluster) -> int:
    """Bytes still allocated per completed op once a 4,000 µs window of
    the smoke ``make_cluster()`` builds has run under tracemalloc, after
    its warm-up, and ``settle()`` has drained syncs and witness gc: what
    each op leaves behind (log, store, backup WALs, RIFL records,
    witness and load-window bookkeeping, and the loops' latency sample,
    8 B in the shared ``LatencyRecorder``).  The ``key_hash`` memo starts
    empty, so the number is the same on one interpreter whatever ran
    earlier in the process."""
    import gc
    import tracemalloc

    from repro.kvstore.hashing import key_hash

    key_hash.cache_clear()
    cluster, loops = make_cluster()
    before = sum(loop.operations for loop in loops)
    gc.collect()
    tracemalloc.start()
    try:
        cluster.sim.run(until=cluster.sim.now + 4_000.0)
        for loop in loops:
            loop.running = False
        cluster.settle()
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(retained / (sum(loop.operations for loop in loops) - before))


def _py_calls_per_op(make_cluster) -> float:
    """Python-level calls per completed op: every function entered and
    generator resumed, counted by ``sys.setprofile`` over a 4,000 µs
    window of the smoke ``make_cluster()`` builds, after its warm-up.
    The ``key_hash`` memo starts empty and the collector is off in the
    window (a collection would run finalizers at an allocation-dependent
    point), so the count repeats exactly on one interpreter, whatever
    ``PYTHONHASHSEED``."""
    import gc

    from repro.kvstore.hashing import key_hash

    key_hash.cache_clear()
    cluster, loops = make_cluster()
    before = sum(loop.operations for loop in loops)
    calls = 0

    def count(_frame, event, _arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    gc.disable()
    sys.setprofile(count)
    try:
        cluster.sim.run(until=cluster.sim.now + 4_000.0)
    finally:
        sys.setprofile(None)
        gc.enable()
    return round(calls / (sum(loop.operations for loop in loops) - before),
                 2)


def _redis_smoke() -> dict:
    """One client's 500 100 B SETs over 200 keys on CURP-Redis with one
    witness (``REDIS_PROFILE``, seed 1), then ``settle()``: the median
    SET latency, the share completed in 1 RTT (the rest met an unsynced
    write to their key) and the witness gc RPCs per write."""
    from repro.harness.profiles import REDIS_PROFILE
    from repro.harness.redis import build_redis_cluster
    from repro.metrics.stats import LatencyRecorder
    from repro.redislike.server import DurabilityMode

    cluster = build_redis_cluster(DurabilityMode.CURP, n_witnesses=1,
                                  profile=REDIS_PROFILE, seed=1)
    client = cluster.new_client()

    def script():
        rng = cluster.sim.rng
        for _ in range(500):
            yield from client.set(f"k{rng.randrange(200)}", "v" * 100)
    cluster.run(cluster.sim.process(script()), timeout=1e9)
    cluster.settle()
    latency = LatencyRecorder()
    for outcome in client.outcomes:
        latency.record(outcome.latency)
    stats = cluster.server.stats
    return {
        "set_p50_us": round(latency.median, 2),
        "fast_path_share": round(
            sum(o.fast_path for o in client.outcomes) / 500, 3),
        "gc_rpcs_per_write": round(stats.gc_rpcs / stats.writes, 3),
    }


def _raft_smoke() -> dict:
    """Raft + CURP at f = 1 and f = 2: 4 clients x 60 alternating
    Write / Increment updates over 10 keys, default ``Network``, seeds
    1-3 pooled: the share completed in 1 RTT and the median latency."""
    from repro.consensus import RaftConfig, RaftCurpClient, RaftNode
    from repro.kvstore import Increment, Write
    from repro.metrics.stats import LatencyRecorder
    from repro.net import Network
    from repro.sim import Simulator

    def run(f: int, seed: int, latency: LatencyRecorder) -> int:
        sim = Simulator(seed=seed)
        network = Network(sim)
        names = [f"r{i}" for i in range(2 * f + 1)]
        nodes = [RaftNode(network.add_host(name), name, names,
                          config=RaftConfig(curp=True)) for name in names]
        while not any(n.role == "leader" and n.serving for n in nodes):
            sim.run(until=sim.now + 1_000.0)
        fast = 0

        def script(client):
            nonlocal fast
            yield from client.find_leader()
            for i in range(60):
                key = f"k{sim.rng.randrange(10)}"
                op = Write(key, i) if i % 2 == 0 else Increment(key)
                started = sim.now
                _result, was_fast = yield from client.update(op)
                latency.record(sim.now - started)
                fast += was_fast
        processes = [
            sim.process(script(RaftCurpClient(network.add_host(f"c{i}"),
                                              names)))
            for i in range(4)]
        for process in processes:
            sim.run(process)
        return fast

    out = {}
    for f in (1, 2):
        latency = LatencyRecorder()
        fast = sum(run(f, seed, latency) for seed in (1, 2, 3))
        out[f"f{f}_fast_path_share"] = round(fast / latency.count, 3)
        out[f"f{f}_p50_us"] = round(latency.median, 2)
    return out


def _rebalance() -> dict:
    """Skewed-workload rebalancing on/off."""
    from benchmarks.bench_rebalance import rebalance_comparison

    series = rebalance_comparison()
    return {
        "aggregate_ops_per_sec": round(series["on"]["throughput"]),
        "aggregate_ops_per_sec_off": round(series["off"]["throughput"]),
        "speedup": round(series["speedup"], 2),
        "hot_shard_share_off": round(series["off"]["max_share"], 3),
        "hot_shard_share_on": round(series["on"]["max_share"], 3),
        "splits": series["on"]["splits"],
        "migrations": series["on"]["migrations"],
    }


def _overload() -> dict:
    """Open-loop goodput vs offered load with defenses on (every load)
    and off (up to the load it has collapsed at), plus the multi-tenant
    witness fairness split."""
    from benchmarks.bench_overload import fairness_comparison, goodput_curve

    curve = goodput_curve()
    fairness = fairness_comparison()
    return {
        "capacity_ops_per_sec": round(curve["capacity_ops_per_sec"]),
        "peak_goodput": round(curve["peak_goodput"]),
        "goodput_at_saturation": round(curve["goodput_at_saturation"]),
        "retention": round(curve["retention"], 3),
        f"collapse_ratio_off_at_{curve['collapse_load']}": round(
            curve["collapse_ratio_off"], 3),
        "fairness_jain": round(curve["fairness_jain"], 3),
        "goodput_by_offered": {
            label: {arm: round(point[arm]["goodput"])
                    for arm in ("on", "off") if arm in point}
            for label, point in curve["curve"].items()},
        "hot_throttle_rate": round(fairness["hot_throttle_rate"], 3),
        "quiet_throttle_rate": round(fairness["quiet_throttle_rate"], 3),
    }


def _recovery() -> dict:
    """Partitioned fast recovery + WAL compaction.  ``time_to_recover``
    is the 4-recovery-master point."""
    from benchmarks.bench_recovery import compaction_tail, recovery_scaling

    scaling = recovery_scaling()
    tail = compaction_tail()
    return {
        "volume_entries": scaling["volume"],
        "time_to_recover_by_masters": {
            str(k): round(point["time_to_recover"], 1)
            for k, point in scaling["by_masters"].items()},
        "time_to_recover": round(scaling["time_to_recover"], 1),
        "speedup_4_vs_1": round(scaling["speedup_4_vs_1"], 2),
        "compaction": {
            "sync_p99_off": round(tail["sync_off"]["p99"], 2),
            "sync_p99_on": round(tail["sync_on"]["p99"], 2),
            "sync_max_on": round(tail["sync_on"]["max"], 2),
            "curp_p99_on": round(tail["curp_on"]["p99"], 2),
            "segments_cleaned": tail["sync_on"]["segments_cleaned"],
            "payloads_reclaimed": tail["sync_on"]["payloads_reclaimed"],
        },
    }


def _availability() -> dict:
    """Fault-plan availability suite.  ``unavailability_window`` is the
    kill-master scenario's."""
    from benchmarks.bench_availability import availability_suite

    suite = availability_suite()

    def _point(report: dict) -> dict:
        return {
            "time_to_detect": (None if report["time_to_detect"] is None
                               else round(report["time_to_detect"], 1)),
            "mttr": (None if report["mttr"] is None
                     else round(report["mttr"], 1)),
            "unavailability_window": round(report["unavailability_window"]),
            "goodput_retained": round(report["goodput_retained"], 3),
        }

    return {
        "probe_budget": round(suite["probe_budget"]),
        "unavailability_window": round(suite["unavailability_window"]),
        "scenarios": {name: _point(report)
                      for name, report in suite["scenarios"].items()},
    }


def _transactions() -> dict:
    """Cross-shard commutative sagas.  ``fast_commit_rate`` is the
    low-contention 1-RTT rate."""
    from benchmarks.bench_transactions import (
        contention_series,
        fast_commit_series,
    )

    low = fast_commit_series()
    hot = contention_series()
    return {
        "transactions": low["transactions"],
        "committed": low["committed"],
        "fast_commit_rate": round(low["fast_commit_rate"], 3),
        "commit_p50": round(low["commit_p50"], 2),
        "commit_p99": round(low["commit_p99"], 2),
        "contended_abort_rate": round(hot["abort_rate"], 3),
        "contended_committed": hot["committed"],
    }


def snapshot() -> dict:
    from benchmarks.bench_sec52_witness_resources import (
        messages_per_update_series,
    )

    return {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "fig6_smoke": _fig6_smoke(),
        "ycsb_b_smoke": _ycsb_b_smoke(),
        "ycsb_a_smoke": _ycsb_a_smoke(),
        "messages_per_update": messages_per_update_series(),
        "redis_smoke": _redis_smoke(),
        "raft_smoke": _raft_smoke(),
        "scaleout": _scaleout(),
        "rebalance": _rebalance(),
        "overload": _overload(),
        "recovery": _recovery(),
        "availability": _availability(),
        "transactions": _transactions(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_core.json"))
    args = parser.parse_args()

    data = snapshot()
    try:
        # --dirty: a snapshot of uncommitted work must not claim to be
        # its parent commit's numbers
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
        if commit:
            data["commit"] = commit
    except OSError:
        pass

    Path(args.out).write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps(data, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
