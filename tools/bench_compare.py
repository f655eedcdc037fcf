#!/usr/bin/env python
"""Compare a fresh ``BENCH_core.json`` against the committed baseline.

Usage (from the repository root)::

    python tools/bench_compare.py --baseline BENCH_core.json \
        --candidate BENCH_core.fresh.json [--threshold 0.25] \
        [--summary $GITHUB_STEP_SUMMARY]

The CI perf gate: fails (exit 1) when a **gated** metric — event-loop
dispatch events/s, witness-cache records/s, RPC round-trips/s, the
Figure 6 smoke ops/s (plain and frame-coalesced) — regresses by more
than ``threshold`` (default 25%, tolerant of shared-runner noise).
``rpc.messages_per_update`` and the Figure 6 smoke's ``events_per_op``
and ``retained_bytes_per_op`` gate in the opposite direction: they are
lower-is-better costs (work or memory per committed update), so the
gate fails when one *rises* past the threshold.  A gated metric the
candidate lacks fails; one the baseline lacks reads n/a, and gates from
the first committed baseline that records it.  The smoke's events/s is
informational: a change that removes dead events lowers it while ops/s
rises.  Every other shared metric is reported informationally too.
The delta table is printed to stdout and, when ``--summary`` (or the
``GITHUB_STEP_SUMMARY`` environment variable) names a file, appended
there as Markdown for the job summary.

To move the baseline intentionally, re-run ``tools/bench_snapshot.py``
on a quiet machine and commit the refreshed ``BENCH_core.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: metrics the gate fails on: (display name, path into the snapshot)
GATED_METRICS = (
    ("dispatch events/s", ("event_loop", "events_per_sec")),
    ("witness records/s", ("witness", "records_per_sec")),
    # machine-independent backstop: current vs vendored-legacy scheduler
    # measured in the same process on the same host, so a baseline from
    # different hardware cannot mask (or fake) a dispatch regression
    ("dispatch speedup vs legacy", ("event_loop", "speedup_vs_legacy")),
    # ISSUE 3: the protocol hot path — the call_cb round-trip rate and
    # the Figure 6 smoke run — gate alongside the scheduler/witness
    # microbenches
    ("rpc roundtrips/s", ("rpc", "roundtrips_per_sec")),
    # the end-to-end number: committed ops per wall-clock second through
    # every layer
    ("fig6 smoke ops/s", ("fig6_smoke", "ops_per_sec")),
    # ISSUE 4: the coalesced smoke gates the frame layer's overhead on
    # non-batched (closed-loop) traffic
    ("fig6 smoke ops/s (coalesced)",
     ("fig6_smoke_coalesced", "ops_per_sec")),
    # ISSUE 5: rebalanced skewed-YCSB aggregate throughput (virtual
    # time — deterministic per seed, so this gate has no runner noise:
    # any drop means the rebalancer stopped balancing or the balanced
    # placement got slower)
    ("rebalance aggregate ops/s", ("rebalance", "aggregate_ops_per_sec")),
    # ISSUE 6: goodput at 10× offered load with defenses on (virtual
    # time, deterministic per seed — a drop means admission control,
    # pushback backoff or the AIMD windows stopped holding the curve
    # flat past saturation)
    ("overload goodput@10x ops/s", ("overload", "goodput_at_saturation")),
    # ISSUE 10: low-contention cross-shard 1-RTT commit rate (virtual
    # time, deterministic per seed — a drop means prepares stopped
    # completing speculatively: witness conflicts, sync-path fallback
    # or the pending-marker guard firing on non-conflicting keys)
    ("transactions fast-commit rate", ("transactions", "fast_commit_rate")),
)

#: gated metrics where *lower* is better: the gate fails when the
#: candidate rises more than the threshold above the baseline
GATED_METRICS_LOWER = (
    # ISSUE 15: kernel events dispatched per committed op in the fig6
    # smoke (deterministic per seed — a rise means some layer started
    # scheduling more work per operation, whatever the runner's speed)
    ("fig6 smoke events/op", ("fig6_smoke", "events_per_op")),
    ("fig6 smoke events/op (coalesced)",
     ("fig6_smoke_coalesced", "events_per_op")),
    # bytes still allocated per committed op after the smoke's short
    # tracemalloc pass (deterministic on one interpreter — a rise means
    # some layer started keeping more state per operation)
    ("fig6 smoke retained bytes/op", ("fig6_smoke", "retained_bytes_per_op")),
    # ISSUE 4: wire transmissions per committed update, f = 3
    # pipelined with frames on (acceptance target ≤ 4, from ~8)
    ("rpc messages/update (coalesced)", ("rpc", "messages_per_update")),
    # ISSUE 7: virtual time-to-recover a 2000-entry master onto 4
    # recovery masters over the segmented-WAL model (deterministic per
    # seed — a rise means striped reads, parallel replay or the absorb
    # path got slower)
    ("recovery time-to-recover (µs)", ("recovery", "time_to_recover")),
    # ISSUE 8: virtual time the kill-master fault plan spends below
    # 50% of baseline goodput (deterministic per seed — a rise means
    # detection, supervised recovery or client re-routing got slower)
    ("availability unavailability window (µs)",
     ("availability", "unavailability_window")),
)

#: reported but never failing (wall-clock sensitive or informational)
INFO_METRICS = (
    ("schedule+dispatch events/s",
     ("event_loop", "schedule_dispatch_events_per_sec")),
    # events/s falls when dead events are removed and ops/s rises, so
    # it cannot gate; ops/s and events/op above do
    ("fig6 smoke events/s", ("fig6_smoke", "events_per_sec")),
    ("fig6 smoke events/s (coalesced)",
     ("fig6_smoke_coalesced", "events_per_sec")),
    # the two O(state) watchers (docs/PERFORMANCE.md): kernel records
    # outstanding, and ops/s of the run's last fifth over its first
    ("fig6 smoke heap peak (records)", ("fig6_smoke", "heap_peak")),
    ("fig6 smoke slice flatness", ("fig6_smoke", "slice_flatness")),
    ("rpc roundtrips/s (yield)", ("rpc", "roundtrips_per_sec_yield")),
    # ISSUE 20: the same call_cb loop between a RAMCLOUD_PROFILE client
    # and witness (RX serialization and the wire sampler on its path,
    # which the gated zero-cost round trip has neither of), and what a
    # round trip costs the kernel: 2 records, one per message
    ("rpc roundtrips/s (calibrated)",
     ("rpc", "roundtrips_per_sec_calibrated")),
    ("rpc events/roundtrip (calibrated)", ("rpc", "events_per_roundtrip")),
    ("curp op path f=3 ops/s", ("curp_op_path", "f3", "ops_per_sec")),
    ("curp op path f=3 msgs/update",
     ("curp_op_path", "f3", "messages_per_update")),
    ("frame msgs/update f=3 (off)",
     ("frame_coalescing", "f3_spread", "messages_per_update_off")),
    ("frame message reduction f=3",
     ("frame_coalescing", "f3_spread", "message_reduction")),
    ("scaleout 4-shard speedup", ("scaleout", "speedup_4_shards_vs_1")),
    ("rebalance on/off speedup", ("rebalance", "speedup")),
    ("rebalance hot-shard share (on)",
     ("rebalance", "hot_shard_share_on")),
    ("overload goodput retention", ("overload", "retention")),
    ("overload collapse ratio (off)", ("overload", "collapse_ratio_off")),
    ("overload witness fairness (quiet throttle)",
     ("overload", "quiet_throttle_rate")),
    ("recovery speedup 4 vs 1 masters", ("recovery", "speedup_4_vs_1")),
    ("availability kill-master detect (µs)",
     ("availability", "scenarios", "kill_master", "time_to_detect")),
    ("availability kill-master mttr (µs)",
     ("availability", "scenarios", "kill_master", "mttr")),
    ("availability gray-witness detect (µs)",
     ("availability", "scenarios", "gray_witness", "time_to_detect")),
    ("availability one-way goodput retained",
     ("availability", "scenarios", "one_way_partition",
      "goodput_retained")),
    ("recovery sync p99 w/ cleaner (µs)",
     ("recovery", "compaction", "sync_p99_on")),
    ("recovery curp p99 w/ cleaner (µs)",
     ("recovery", "compaction", "curp_p99_on")),
    ("transactions commit p50 (µs)", ("transactions", "commit_p50")),
    ("transactions contended abort rate",
     ("transactions", "contended_abort_rate")),
)


def lookup(data: dict, path: tuple[str, ...]) -> float | None:
    """Walk a nested dict; None when any step is missing."""
    node = data
    for step in path:
        if not isinstance(node, dict) or step not in node:
            return None
        node = node[step]
    return node if isinstance(node, (int, float)) else None


def compare(baseline: dict, candidate: dict,
            threshold: float) -> tuple[list[dict], list[str]]:
    """Build delta rows; returns (rows, gate failure messages)."""
    rows = []
    failures = []
    groups = ((True, False, GATED_METRICS),
              (True, True, GATED_METRICS_LOWER),
              (False, False, INFO_METRICS))
    for gated, lower_is_better, metrics in groups:
        for name, path in metrics:
            base = lookup(baseline, path)
            cand = lookup(candidate, path)
            row = {"name": name, "baseline": base, "candidate": cand,
                   "gated": gated, "delta": None, "status": "n/a"}
            if base and cand is not None:
                row["delta"] = (cand - base) / base
                regressed = (row["delta"] > threshold if lower_is_better
                             else row["delta"] < -threshold)
                if not gated:
                    row["status"] = "info"
                elif regressed:
                    row["status"] = "REGRESSION"
                    sign = "+" if lower_is_better else "-"
                    failures.append(
                        f"{name}: {base:,.2f} -> {cand:,.2f} "
                        f"({row['delta']:+.1%}, threshold "
                        f"{sign}{threshold:.0%})")
                else:
                    row["status"] = "ok"
            elif gated and base is None:
                pass  # newer than the baseline: gated from the next one
            elif gated:
                # A gated metric that cannot be compared (renamed key,
                # partial snapshot, zero baseline) must fail loudly —
                # otherwise schema drift silently disables the gate.
                row["status"] = "MISSING"
                failures.append(
                    f"{name}: missing or zero in baseline/candidate "
                    f"(baseline={base!r}, candidate={cand!r}) — gated "
                    f"metrics must be comparable")
            rows.append(row)
    return rows, failures


def _fmt(value: float | None) -> str:
    if value is None:
        return "—"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:,.2f}"


def format_markdown(rows: list[dict], threshold: float) -> str:
    lines = [
        "### Perf gate: BENCH_core.json vs baseline",
        "",
        f"Gate: dispatch events/s, witness records/s, rpc roundtrips/s, "
        f"fig6 smoke ops/s (plain + coalesced) must not drop more than "
        f"{threshold:.0%}; rpc messages/update and fig6 smoke events/op "
        f"and retained bytes/op must not *rise* more than "
        f"{threshold:.0%}.",
        "",
        "| metric | baseline | candidate | delta | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for row in rows:
        delta = "—" if row["delta"] is None else f"{row['delta']:+.1%}"
        name = f"**{row['name']}**" if row["gated"] else row["name"]
        lines.append(f"| {name} | {_fmt(row['baseline'])} "
                     f"| {_fmt(row['candidate'])} | {delta} "
                     f"| {row['status']} |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_core.json")
    parser.add_argument("--candidate", default="BENCH_core.fresh.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated fractional regression")
    parser.add_argument("--summary", default=None,
                        help="file to append the Markdown table to "
                             "(default: $GITHUB_STEP_SUMMARY if set)")
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    candidate = json.loads(Path(args.candidate).read_text())
    rows, failures = compare(baseline, candidate, args.threshold)

    table = format_markdown(rows, args.threshold)
    print(table)
    summary = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as handle:
            handle.write(table)

    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("perf gate ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
