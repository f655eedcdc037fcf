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
  4 masters, 95 % reads) — kernel events and Python-level calls per
  completed op;
- ``messages_per_update``: wire messages per committed update at
  f ∈ {1, 3}, colocated vs spread witnesses
  (``benchmarks/bench_sec52_witness_resources.py``);
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


def _closed_loops(workload, n_masters: int = 1):
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
        client=cluster.new_client(collect_outcomes=False),
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
        "retained_bytes_per_op": _fig6_retained_bytes_per_op(),
        "py_calls_per_op": _py_calls_per_op(_fig6_cluster),
    }


def _ycsb_b_smoke() -> dict:
    """The read path: a YCSB-B closed loop, 16 clients on 4 masters.

    ``events_per_op`` is the kernel events dispatched per completed op
    inside a 10,000 µs window; ``py_calls_per_op`` is counted as for
    the fig6 smoke, in a run of its own.
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
        "py_calls_per_op": _py_calls_per_op(_ycsb_b_cluster),
    }


def _fig6_retained_bytes_per_op() -> int:
    """Bytes still allocated per committed op once a 4,000 µs window of
    the smoke has run under tracemalloc and ``settle()`` has drained
    syncs and witness gc: what each op leaves behind (log, store,
    backup WALs, RIFL records).  The ``key_hash`` memo starts empty, so
    the number is the same on one interpreter whatever ran earlier in
    the process."""
    import gc
    import tracemalloc

    from repro.kvstore.hashing import key_hash

    key_hash.cache_clear()
    cluster, loops = _fig6_cluster()
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
        "messages_per_update": messages_per_update_series(),
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
