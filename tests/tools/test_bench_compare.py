"""Unit tests for the CI perf gate (tools/bench_compare.py): every
numeric leaf of the baseline within 1% of the candidate's, either way."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO_ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

#: the committed baseline; every test compares it with a shifted copy
COMMITTED = json.loads((REPO_ROOT / "BENCH_core.json").read_text())
NUMERIC_LEAVES = [path for path, value in
                  bench_compare.leaves(COMMITTED).items()
                  if bench_compare._is_number(value)]


def moved(changes: dict[tuple, object]) -> dict:
    """A copy of the committed snapshot with each leaf path set."""
    data = copy.deepcopy(COMMITTED)
    for path, value in changes.items():
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return data


def shifted(path: tuple, fraction: float) -> float:
    """The committed leaf moved by ``fraction`` of itself (of 1 when it
    is 0)."""
    value = bench_compare.leaves(COMMITTED)[path]
    return value + fraction * (abs(value) or 1.0)


def failures_for(path: tuple, value) -> list[str]:
    return bench_compare.compare(COMMITTED, moved({path: value}))[1]


def assert_gated(path: tuple, value) -> None:
    failures = failures_for(path, value)
    assert len(failures) == 1, failures
    assert failures[0].startswith(".".join(path) + ":")


@pytest.mark.parametrize("path", NUMERIC_LEAVES, ids=".".join)
def test_every_numeric_leaf_is_gated_both_ways(path):
    """The file passes against itself; a 2% move of one leaf either way
    fails on that leaf alone; a 0.5% move passes."""
    assert bench_compare.compare(COMMITTED, COMMITTED)[1] == []
    assert_gated(path, shifted(path, 0.02))
    assert_gated(path, shifted(path, -0.02))
    assert failures_for(path, shifted(path, 0.005)) == []
    assert failures_for(path, shifted(path, -0.005)) == []


def test_within_threshold_passes():
    """Every leaf moved by +0.5% at once still passes."""
    candidate = moved({path: shifted(path, 0.005) for path in NUMERIC_LEAVES})
    rows, failures = bench_compare.compare(COMMITTED, candidate)
    assert failures == []
    assert {row["status"] for row in rows} == {"ok"}


def test_gated_regression_fails():
    path = ("transactions", "commit_p50")
    rows, failures = bench_compare.compare(
        COMMITTED, moved({path: shifted(path, -0.02)}))
    assert len(failures) == 1
    row = {row["path"]: row for row in rows}["transactions.commit_p50"]
    assert row["status"] == "MOVED"
    assert row["delta"] == pytest.approx(-0.02)


def test_zero_baseline_is_a_value_not_a_missing_row(tmp_path):
    """The quiet tenant's witness throttle rate is 0: it is compared on
    an absolute scale, so 0 -> 0.3 fails and 0 -> 0 passes."""
    path = ("overload", "quiet_throttle_rate")
    assert COMMITTED["overload"]["quiet_throttle_rate"] == 0
    baseline = tmp_path / "base.json"
    candidate = tmp_path / "cand.json"
    baseline.write_text(json.dumps(COMMITTED))
    args = ["--baseline", str(baseline), "--candidate", str(candidate)]
    candidate.write_text(json.dumps(moved({path: 0.3})))
    assert bench_compare.main(args) == 1
    candidate.write_text(json.dumps(moved({path: 0})))
    assert bench_compare.main(args) == 0


def test_null_leaf_must_stay_null():
    """The slow-disk plan is never detected; a detection time appearing
    fails like a moved number."""
    path = ("availability", "scenarios", "slow_disk", "time_to_detect")
    assert bench_compare.leaves(COMMITTED)[path] is None
    assert_gated(path, 5_000.0)


def test_python_minor_mismatch_fails_and_names_both():
    """Retained bytes per op are interpreter-specific."""
    failures = bench_compare.compare(COMMITTED,
                                     dict(COMMITTED, python="3.99.0"))[1]
    assert len(failures) == 1
    assert COMMITTED["python"] in failures[0] and "3.99.0" in failures[0]
    same_minor = COMMITTED["python"].rsplit(".", 1)[0] + ".99"
    assert bench_compare.compare(COMMITTED,
                                 dict(COMMITTED, python=same_minor))[1] == []


def test_dirty_baseline_stamp_fails():
    """A baseline snapshot of uncommitted work vouches for nothing; the
    candidate's stamp is not gated."""
    assert not COMMITTED["commit"].endswith("-dirty")
    dirty = dict(COMMITTED, commit=COMMITTED["commit"] + "-dirty")
    failures = bench_compare.compare(dirty, COMMITTED)[1]
    assert len(failures) == 1 and dirty["commit"] in failures[0]
    assert bench_compare.compare(COMMITTED, dirty)[1] == []


def test_missing_gated_metric_fails_the_gate():
    """Schema drift must not silently disable the gate: every leaf the
    candidate lacks fails."""
    candidate = {key: {} if isinstance(value, dict) else value
                 for key, value in COMMITTED.items()}
    rows, failures = bench_compare.compare(COMMITTED, candidate)
    assert len(failures) == len(bench_compare.leaves(COMMITTED))
    assert {row["status"] for row in rows} == {"MISSING"}


def test_retained_bytes_gate_starts_with_the_first_baseline_that_has_it():
    """A row new in the candidate is reported, not failed; a candidate
    that lost a row fails."""
    older = copy.deepcopy(COMMITTED)
    del older["fig6_smoke"]["retained_bytes_per_op"]
    rows, failures = bench_compare.compare(older, COMMITTED)
    assert failures == []
    row = {row["path"]: row for row in rows}[
        "fig6_smoke.retained_bytes_per_op"]
    assert row["status"] == "new"
    failures = bench_compare.compare(COMMITTED, older)[1]
    assert len(failures) == 1 and "MISSING" in failures[0]


def test_retained_bytes_rise_fails_the_gate():
    """Some layer started keeping another copy or index entry per write;
    a fall fails too — the baseline is re-pinned with the change."""
    path = ("fig6_smoke", "retained_bytes_per_op")
    assert_gated(path, COMMITTED["fig6_smoke"]["retained_bytes_per_op"] + 20)
    assert_gated(path, COMMITTED["fig6_smoke"]["retained_bytes_per_op"] - 20)


def test_messages_per_update_rise_fails_the_gate():
    """The update path started sending one more RPC per update."""
    assert_gated(("messages_per_update", "f3_spread"), 9.22)


def test_rebalance_aggregate_regression_gates():
    """The balancer stopped balancing, or the balanced placement got
    slower."""
    assert_gated(("rebalance", "aggregate_ops_per_sec"), 1_600_000)


def test_overload_goodput_regression_gates():
    """Admission control or backpressure stopped holding the curve flat
    past saturation."""
    assert_gated(("overload", "goodput_at_saturation"), 39_000)


def test_recovery_time_rise_fails_the_gate():
    """Striped reads or the parallel absorb path got slower."""
    assert_gated(("recovery", "time_to_recover"), 1_300.0)


def test_unavailability_rise_fails_the_gate():
    """Detection, supervised recovery or client re-routing got slower."""
    assert_gated(("availability", "unavailability_window"), 3_000)


def test_transaction_fast_commit_rate_regression_gates():
    """Prepares stopped completing speculatively."""
    assert_gated(("transactions", "fast_commit_rate"), 0.95)


def test_markdown_table_marks_gated_metrics():
    """One row per leaf; a failing row's status is bold."""
    rows, _ = bench_compare.compare(
        COMMITTED, moved({("overload", "quiet_throttle_rate"): 0.3}))
    table = bench_compare.format_markdown(rows)
    assert "| `rebalance.aggregate_ops_per_sec` |" in table
    assert "| `overload.quiet_throttle_rate` | —" not in table
    assert "+0.3 abs | **MOVED** |" in table
    assert table.count("\n| `") == len(bench_compare.leaves(COMMITTED))


def test_main_exit_codes_and_summary(tmp_path):
    baseline = tmp_path / "base.json"
    candidate = tmp_path / "cand.json"
    summary = tmp_path / "summary.md"
    baseline.write_text(json.dumps(COMMITTED))
    args = ["--baseline", str(baseline), "--candidate", str(candidate),
            "--summary", str(summary)]

    candidate.write_text(json.dumps(COMMITTED))
    assert bench_compare.main(args) == 0
    assert "Perf gate" in summary.read_text()

    candidate.write_text(json.dumps(
        moved({("scaleout", "speedup_4_shards_vs_1"): 2.0})))
    assert bench_compare.main(args) == 1
