"""Unit tests for the CI perf-regression gate (tools/bench_compare.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO_ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def snapshot(dispatch=6_000_000, records=800_000, rpc=200_000,
             fig6=170_000, speedup=3.8, fig6_coalesced=170_000,
             messages_per_update=2.3, rebalance_ops=1_300_000,
             overload_goodput=39_900, recovery_time=1_250.0,
             unavailability=2_000.0,
             fast_commit_rate=0.98, fig6_ops=5_500,
             fig6_coalesced_ops=5_000, events_per_op=21.6,
             events_per_op_coalesced=21.6) -> dict:
    return {
        "event_loop": {"events_per_sec": dispatch,
                       "speedup_vs_legacy": speedup,
                       "schedule_dispatch_events_per_sec": dispatch // 2},
        "witness": {"records_per_sec": records},
        "rpc": {"roundtrips_per_sec": rpc,
                "roundtrips_per_sec_yield": rpc * 3 // 4,
                "roundtrips_per_sec_calibrated": rpc * 4 // 5,
                "events_per_roundtrip": 2.0,
                "messages_per_update": messages_per_update},
        "fig6_smoke": {"events_per_sec": fig6,
                       "ops_per_sec": fig6_ops,
                       "events_per_op": events_per_op,
                       "heap_peak": 57,
                       "slice_flatness": 1.0},
        "fig6_smoke_coalesced": {"events_per_sec": fig6_coalesced,
                                 "ops_per_sec": fig6_coalesced_ops,
                                 "events_per_op": events_per_op_coalesced},
        "rebalance": {"aggregate_ops_per_sec": rebalance_ops,
                      "speedup": 1.8,
                      "hot_shard_share_on": 0.27},
        "overload": {"goodput_at_saturation": overload_goodput,
                     "retention": 0.99,
                     "collapse_ratio_off": 0.04,
                     "quiet_throttle_rate": 0.0},
        "recovery": {"time_to_recover": recovery_time,
                     "speedup_4_vs_1": 3.1,
                     "compaction": {"sync_p99_on": 28.5,
                                    "curp_p99_on": 4.0}},
        "availability": {
            "unavailability_window": unavailability,
            "scenarios": {
                "kill_master": {"time_to_detect": 2_076.0,
                                "mttr": 2_096.0},
                "gray_witness": {"time_to_detect": 4_730.0},
                "one_way_partition": {"goodput_retained": 1.0}}},
        "transactions": {"fast_commit_rate": fast_commit_rate,
                         "commit_p50": 12.0,
                         "contended_abort_rate": 0.33},
    }


def test_within_threshold_passes():
    rows, failures = bench_compare.compare(
        snapshot(), snapshot(dispatch=5_000_000, records=700_000),
        threshold=0.25)
    assert failures == []
    gated = {row["name"]: row for row in rows if row["gated"]}
    assert gated["dispatch events/s"]["status"] == "ok"
    assert gated["witness records/s"]["status"] == "ok"


def test_gated_regression_fails():
    rows, failures = bench_compare.compare(
        snapshot(), snapshot(dispatch=4_000_000), threshold=0.25)
    assert len(failures) == 1
    assert "dispatch events/s" in failures[0]
    gated = {row["name"]: row for row in rows if row["gated"]}
    assert gated["dispatch events/s"]["status"] == "REGRESSION"
    assert gated["dispatch events/s"]["delta"] < -0.25


def test_rpc_roundtrips_regression_gates():
    """ISSUE 3 promoted rpc roundtrips/s from info to gated."""
    _rows, failures = bench_compare.compare(
        snapshot(), snapshot(rpc=10_000), threshold=0.25)
    assert len(failures) == 1
    assert "rpc roundtrips/s" in failures[0]


@pytest.mark.parametrize("regressed, name", [
    # the end-to-end wall-clock ops/s is gated, not informational
    ({"fig6_ops": 3_000}, "fig6 smoke ops/s"),
    ({"fig6_coalesced_ops": 3_000}, "fig6 smoke ops/s (coalesced)"),
    # events per committed op: deterministic, lower is better
    ({"events_per_op": 30.0}, "fig6 smoke events/op"),
    ({"events_per_op_coalesced": 30.0}, "fig6 smoke events/op (coalesced)"),
])
def test_fig6_smoke_regression_gates(regressed, name):
    _rows, failures = bench_compare.compare(
        snapshot(), snapshot(**regressed), threshold=0.25)
    assert len(failures) == 1
    assert failures[0].startswith(f"{name}:")


def test_fig6_smoke_events_per_sec_is_informational():
    """Removing dead events lowers events/s while ops/s rises (ISSUE
    15 cut ~15% of events per op), so events/s cannot gate; neither do
    the two O(state) watchers beside it."""
    candidate = snapshot(fig6=100_000, fig6_coalesced=100_000,
                         events_per_op=18.0)
    candidate["fig6_smoke"]["heap_peak"] = 7_400
    candidate["fig6_smoke"]["slice_flatness"] = 0.5
    rows, failures = bench_compare.compare(
        snapshot(), candidate, threshold=0.25)
    assert failures == []
    info = {row["name"]: row for row in rows if not row["gated"]}
    assert info["fig6 smoke events/s"]["status"] == "info"
    assert info["fig6 smoke events/s (coalesced)"]["status"] == "info"
    assert info["fig6 smoke heap peak (records)"]["status"] == "info"
    assert info["fig6 smoke slice flatness"]["status"] == "info"


def test_info_metric_regression_does_not_fail():
    """The yield-path roundtrip rate stays informational."""
    candidate = snapshot()
    candidate["rpc"]["roundtrips_per_sec_yield"] = 10_000
    _rows, failures = bench_compare.compare(
        snapshot(), candidate, threshold=0.25)
    assert failures == []


def test_calibrated_roundtrip_rows_are_informational():
    """ISSUE 20: the RAMCLOUD_PROFILE round trip and its kernel records
    per round trip are reported, never gated — and a baseline from
    before they existed still compares."""
    candidate = snapshot()
    candidate["rpc"]["roundtrips_per_sec_calibrated"] = 10_000
    candidate["rpc"]["events_per_roundtrip"] = 4.0
    rows, failures = bench_compare.compare(
        snapshot(), candidate, threshold=0.25)
    assert failures == []
    info = {row["name"]: row for row in rows if not row["gated"]}
    assert info["rpc roundtrips/s (calibrated)"]["status"] == "info"
    assert info["rpc roundtrips/s (calibrated)"]["delta"] < -0.25
    assert info["rpc events/roundtrip (calibrated)"]["status"] == "info"
    assert info["rpc events/roundtrip (calibrated)"]["delta"] == 1.0
    old = snapshot()
    del old["rpc"]["roundtrips_per_sec_calibrated"]
    del old["rpc"]["events_per_roundtrip"]
    rows, failures = bench_compare.compare(old, snapshot(), threshold=0.25)
    assert failures == []
    info = {row["name"]: row for row in rows if not row["gated"]}
    assert info["rpc roundtrips/s (calibrated)"]["status"] == "n/a"


def test_improvement_passes():
    _rows, failures = bench_compare.compare(
        snapshot(), snapshot(dispatch=9_000_000, records=1_300_000),
        threshold=0.25)
    assert failures == []


def test_missing_info_metric_is_na_not_failure():
    """Old baselines without the op-path series must still compare."""
    rows, failures = bench_compare.compare(snapshot(), snapshot(),
                                           threshold=0.25)
    assert failures == []
    info = {row["name"]: row for row in rows if not row["gated"]}
    assert info["curp op path f=3 ops/s"]["status"] == "n/a"


def test_missing_gated_metric_fails_the_gate():
    """Schema drift must not silently disable the gate."""
    rows, failures = bench_compare.compare(
        snapshot(), {"event_loop": {}, "witness": {}}, threshold=0.25)
    assert len(failures) == 14  # every gated metric uncomparable
    gated = {row["name"]: row for row in rows if row["gated"]}
    assert gated["dispatch events/s"]["status"] == "MISSING"
    assert gated["witness records/s"]["status"] == "MISSING"
    assert gated["dispatch speedup vs legacy"]["status"] == "MISSING"
    assert gated["rpc roundtrips/s"]["status"] == "MISSING"
    assert gated["fig6 smoke ops/s"]["status"] == "MISSING"
    assert gated["fig6 smoke ops/s (coalesced)"]["status"] == "MISSING"
    assert gated["fig6 smoke events/op"]["status"] == "MISSING"
    assert gated["fig6 smoke events/op (coalesced)"]["status"] == "MISSING"
    assert gated["rpc messages/update (coalesced)"]["status"] == "MISSING"
    assert gated["rebalance aggregate ops/s"]["status"] == "MISSING"
    assert gated["overload goodput@10x ops/s"]["status"] == "MISSING"
    assert gated["recovery time-to-recover (µs)"]["status"] == "MISSING"
    assert (gated["availability unavailability window (µs)"]["status"]
            == "MISSING")
    assert gated["transactions fast-commit rate"]["status"] == "MISSING"


# ----------------------------------------------------------------------
# ISSUE 5: the rebalanced skewed-YCSB aggregate gate
# ----------------------------------------------------------------------
def test_rebalance_aggregate_regression_gates():
    """A drop in the deterministic rebalanced aggregate (the balancer
    stopped balancing, or the balanced placement got slower) fails."""
    rows, failures = bench_compare.compare(
        snapshot(), snapshot(rebalance_ops=800_000), threshold=0.25)
    assert len(failures) == 1
    assert "rebalance aggregate ops/s" in failures[0]
    gated = {row["name"]: row for row in rows if row["gated"]}
    assert gated["rebalance aggregate ops/s"]["status"] == "REGRESSION"


def test_rebalance_speedup_is_informational():
    candidate = snapshot()
    candidate["rebalance"]["speedup"] = 1.0
    candidate["rebalance"]["hot_shard_share_on"] = 0.45
    _rows, failures = bench_compare.compare(
        snapshot(), candidate, threshold=0.25)
    assert failures == []


# ----------------------------------------------------------------------
# ISSUE 4: the coalesced smoke + the lower-is-better message floor
# ----------------------------------------------------------------------
def test_messages_per_update_rise_fails_the_gate():
    """messages/update is lower-is-better: a rise past the threshold
    (frames silently not coalescing any more) must fail."""
    rows, failures = bench_compare.compare(
        snapshot(), snapshot(messages_per_update=8.2), threshold=0.25)
    assert len(failures) == 1
    assert "rpc messages/update (coalesced)" in failures[0]
    gated = {row["name"]: row for row in rows if row["gated"]}
    row = gated["rpc messages/update (coalesced)"]
    assert row["status"] == "REGRESSION"
    assert row["delta"] > 0.25


def test_messages_per_update_drop_passes():
    """Falling below the baseline is an improvement, not a regression."""
    _rows, failures = bench_compare.compare(
        snapshot(), snapshot(messages_per_update=1.1), threshold=0.25)
    assert failures == []


# ----------------------------------------------------------------------
# ISSUE 6: the defended goodput-at-saturation gate
# ----------------------------------------------------------------------
def test_overload_goodput_regression_gates():
    """A drop in the deterministic defended goodput at 10× offered load
    (admission control / backpressure stopped holding the curve) fails."""
    rows, failures = bench_compare.compare(
        snapshot(), snapshot(overload_goodput=20_000), threshold=0.25)
    assert len(failures) == 1
    assert "overload goodput@10x ops/s" in failures[0]
    gated = {row["name"]: row for row in rows if row["gated"]}
    assert gated["overload goodput@10x ops/s"]["status"] == "REGRESSION"


def test_overload_side_metrics_are_informational():
    candidate = snapshot()
    candidate["overload"]["retention"] = 0.5
    candidate["overload"]["collapse_ratio_off"] = 0.9
    _rows, failures = bench_compare.compare(
        snapshot(), candidate, threshold=0.25)
    assert failures == []


# ----------------------------------------------------------------------
# ISSUE 7: the partitioned-recovery lower-is-better gate
# ----------------------------------------------------------------------
def test_recovery_time_rise_fails_the_gate():
    """time-to-recover is lower-is-better: a rise past the threshold
    (striped reads / parallel absorb got slower) must fail."""
    rows, failures = bench_compare.compare(
        snapshot(), snapshot(recovery_time=2_500.0), threshold=0.25)
    assert len(failures) == 1
    assert "recovery time-to-recover (µs)" in failures[0]
    gated = {row["name"]: row for row in rows if row["gated"]}
    row = gated["recovery time-to-recover (µs)"]
    assert row["status"] == "REGRESSION"
    assert row["delta"] > 0.25


def test_recovery_time_drop_passes():
    """Recovering faster than the baseline is an improvement."""
    _rows, failures = bench_compare.compare(
        snapshot(), snapshot(recovery_time=800.0), threshold=0.25)
    assert failures == []


def test_recovery_side_metrics_are_informational():
    candidate = snapshot()
    candidate["recovery"]["speedup_4_vs_1"] = 1.2
    candidate["recovery"]["compaction"]["curp_p99_on"] = 30.0
    _rows, failures = bench_compare.compare(
        snapshot(), candidate, threshold=0.25)
    assert failures == []


# ----------------------------------------------------------------------
# ISSUE 8: the unavailability-window lower-is-better gate
# ----------------------------------------------------------------------
def test_unavailability_rise_fails_the_gate():
    """unavailability window is lower-is-better: a rise past the
    threshold (detection / recovery / re-routing got slower) must fail."""
    rows, failures = bench_compare.compare(
        snapshot(), snapshot(unavailability=5_000.0), threshold=0.25)
    assert len(failures) == 1
    assert "availability unavailability window (µs)" in failures[0]
    gated = {row["name"]: row for row in rows if row["gated"]}
    row = gated["availability unavailability window (µs)"]
    assert row["status"] == "REGRESSION"
    assert row["delta"] > 0.25


def test_unavailability_drop_passes():
    """Healing faster than the baseline is an improvement."""
    _rows, failures = bench_compare.compare(
        snapshot(), snapshot(unavailability=1_000.0), threshold=0.25)
    assert failures == []


def test_availability_scenario_metrics_are_informational():
    candidate = snapshot()
    candidate["availability"]["scenarios"]["kill_master"][
        "time_to_detect"] = 50_000.0
    candidate["availability"]["scenarios"]["one_way_partition"][
        "goodput_retained"] = 0.2
    _rows, failures = bench_compare.compare(
        snapshot(), candidate, threshold=0.25)
    assert failures == []


# ----------------------------------------------------------------------
# ISSUE 10: the cross-shard 1-RTT commit-rate gate
# ----------------------------------------------------------------------
def test_transaction_fast_commit_rate_regression_gates():
    """A drop in the low-contention 1-RTT commit rate (prepares stopped
    completing speculatively) fails the gate."""
    rows, failures = bench_compare.compare(
        snapshot(), snapshot(fast_commit_rate=0.5), threshold=0.25)
    assert len(failures) == 1
    assert "transactions fast-commit rate" in failures[0]
    gated = {row["name"]: row for row in rows if row["gated"]}
    assert gated["transactions fast-commit rate"]["status"] == "REGRESSION"


def test_transaction_side_metrics_are_informational():
    candidate = snapshot()
    candidate["transactions"]["commit_p50"] = 900.0
    candidate["transactions"]["contended_abort_rate"] = 0.9
    _rows, failures = bench_compare.compare(
        snapshot(), candidate, threshold=0.25)
    assert failures == []


def test_machine_independent_ratio_gates_too():
    """A dispatch regression shows in the same-host legacy ratio even
    when a fast runner keeps the absolute rate above threshold."""
    _rows, failures = bench_compare.compare(
        snapshot(), snapshot(speedup=2.0), threshold=0.25)
    assert len(failures) == 1
    assert "dispatch speedup vs legacy" in failures[0]


def test_markdown_table_marks_gated_metrics():
    rows, _ = bench_compare.compare(snapshot(), snapshot(), threshold=0.25)
    table = bench_compare.format_markdown(rows, threshold=0.25)
    assert "| **dispatch events/s** |" in table
    assert "| **rpc roundtrips/s** |" in table
    assert "| rpc roundtrips/s (yield) |" in table


def test_main_exit_codes_and_summary(tmp_path):
    baseline = tmp_path / "base.json"
    candidate = tmp_path / "cand.json"
    summary = tmp_path / "summary.md"
    baseline.write_text(json.dumps(snapshot()))

    candidate.write_text(json.dumps(snapshot(dispatch=5_900_000)))
    assert bench_compare.main(["--baseline", str(baseline),
                               "--candidate", str(candidate),
                               "--summary", str(summary)]) == 0
    assert "Perf gate" in summary.read_text()

    candidate.write_text(json.dumps(snapshot(records=100_000)))
    assert bench_compare.main(["--baseline", str(baseline),
                               "--candidate", str(candidate),
                               "--summary", str(summary)]) == 1


# ----------------------------------------------------------------------
# retained bytes per committed op: a lower-is-better memory gate
# ----------------------------------------------------------------------
def _with_retained(data: dict, value: float) -> dict:
    data["fig6_smoke"]["retained_bytes_per_op"] = value
    return data


def test_retained_bytes_rise_fails_the_gate():
    """Bytes left allocated per committed op are lower-is-better: a rise
    past the threshold (some layer keeps a new copy per write) fails,
    a fall passes."""
    baseline = _with_retained(snapshot(), 1_000.0)
    rows, failures = bench_compare.compare(
        baseline, _with_retained(snapshot(), 1_400.0), threshold=0.25)
    assert len(failures) == 1
    assert failures[0].startswith("fig6 smoke retained bytes/op:")
    gated = {row["name"]: row for row in rows if row["gated"]}
    assert gated["fig6 smoke retained bytes/op"]["status"] == "REGRESSION"
    _rows, failures = bench_compare.compare(
        baseline, _with_retained(snapshot(), 700.0), threshold=0.25)
    assert failures == []


def test_retained_bytes_gate_starts_with_the_first_baseline_that_has_it():
    """A baseline from before the row existed compares as n/a; a
    candidate that lost the row fails like any gated metric."""
    rows, failures = bench_compare.compare(
        snapshot(), _with_retained(snapshot(), 1_000.0), threshold=0.25)
    assert failures == []
    gated = {row["name"]: row for row in rows if row["gated"]}
    assert gated["fig6 smoke retained bytes/op"]["status"] == "n/a"
    assert len(gated) == 15
    _rows, failures = bench_compare.compare(
        _with_retained(snapshot(), 1_000.0), snapshot(), threshold=0.25)
    assert len(failures) == 1
    assert failures[0].startswith("fig6 smoke retained bytes/op:")
