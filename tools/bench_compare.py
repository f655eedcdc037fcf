#!/usr/bin/env python
"""Compare a fresh ``BENCH_core.json`` against the committed baseline.

Usage (from the repository root)::

    python tools/bench_compare.py --baseline BENCH_core.json \
        --candidate BENCH_core.fresh.json [--summary $GITHUB_STEP_SUMMARY]

Every row of the snapshot is virtual time or an exact count and
repeats to the digit, so the gate is one rule: **every numeric leaf of
the baseline must be within ``TOLERANCE`` (1%) of the candidate's, in
either direction**.  A baseline of 0 is a value like any other and is
compared on an absolute scale (0 → 0 passes, 0 → 0.3 fails).  A leaf the
candidate lacks fails; a leaf new in the candidate is reported and does
not fail.  A leaf that is not a number (``null`` for a fault the
watchdog never detects) must be equal.  The baseline and the candidate
must come from the same Python major.minor, because
``fig6_smoke.retained_bytes_per_op`` depends on the interpreter.

The top-level scalars (``python``, ``commit``, …) say where a snapshot
came from and are not compared, but a baseline whose ``commit`` stamp
ends in ``-dirty`` fails: its rows come from uncommitted work, so no
commit vouches for them.  A change that means to move a row
re-pins the baseline once: re-run ``tools/bench_snapshot.py`` and commit
the refreshed ``BENCH_core.json`` with it.

The delta table is printed to stdout and, when ``--summary`` (or the
``GITHUB_STEP_SUMMARY`` environment variable) names a file, appended
there as Markdown for the job summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: the largest move a row may make, as a fraction of its baseline value
#: (of 1 for a baseline of 0), before the gate fails
TOLERANCE = 0.01


def leaves(data: dict, path: tuple[str, ...] = ()) -> dict[tuple, object]:
    """Every leaf under a top-level section, keyed by its path of keys
    (``("overload", "goodput_by_offered", "0.5x", "off")``)."""
    flat: dict[tuple, object] = {}
    for key, value in data.items():
        if isinstance(value, dict):
            flat.update(leaves(value, path + (key,)))
        elif path:
            flat[path + (key,)] = value
    return flat


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _python_minor(data: dict) -> str | None:
    version = data.get("python")
    return ".".join(version.split(".")[:2]) if version else None


def compare(baseline: dict, candidate: dict) -> tuple[list[dict], list[str]]:
    """Build one row per leaf; returns (rows, gate failure messages)."""
    failures = []
    if _python_minor(baseline) != _python_minor(candidate):
        failures.append(
            f"python: baseline {baseline.get('python')} vs candidate "
            f"{candidate.get('python')} — retained bytes are "
            f"interpreter-specific; compare on one major.minor")
    if str(baseline.get("commit", "")).endswith("-dirty"):
        failures.append(
            f"commit: baseline stamped {baseline['commit']!r} — re-run "
            f"tools/bench_snapshot.py on a clean checkout")
    base, cand = leaves(baseline), leaves(candidate)
    rows = []
    for path in list(base) + [path for path in cand if path not in base]:
        row = {"path": ".".join(path), "baseline": base.get(path),
               "candidate": cand.get(path), "delta": None}
        if path not in cand:
            row["status"] = "MISSING"
        elif path not in base:
            row["status"] = "new"
        elif _is_number(row["baseline"]) and _is_number(row["candidate"]):
            row["delta"] = ((row["candidate"] - row["baseline"])
                            / (abs(row["baseline"]) or 1.0))
            row["status"] = ("ok" if abs(row["delta"]) <= TOLERANCE
                             else "MOVED")
        else:
            row["status"] = ("ok" if row["baseline"] == row["candidate"]
                             else "CHANGED")
        if row["status"] not in ("ok", "new"):
            failures.append(
                f"{row['path']}: {row['baseline']!r} -> {row['candidate']!r} "
                f"({row['status']}, tolerance ±{TOLERANCE:.0%})")
        rows.append(row)
    return rows, failures


def _fmt(value: object) -> str:
    if value is None:
        return "—"
    if not _is_number(value):
        return repr(value)
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:,.3g}"


def _fmt_delta(row: dict) -> str:
    if row["delta"] is None:
        return "—"
    if row["baseline"] == 0:
        return f"{row['delta']:+.3g} abs"
    return f"{row['delta']:+.2%}"


def format_markdown(rows: list[dict]) -> str:
    lines = [
        "### Perf gate: BENCH_core.json vs baseline",
        "",
        f"Gate: every row within ±{TOLERANCE:.0%} of the baseline in "
        f"either direction (a zero baseline: ±{TOLERANCE} absolute); "
        f"a missing row fails, a new row is reported.",
        "",
        "| row | baseline | candidate | delta | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for row in rows:
        status = (row["status"] if row["status"] in ("ok", "new")
                  else f"**{row['status']}**")
        lines.append(f"| `{row['path']}` | {_fmt(row['baseline'])} "
                     f"| {_fmt(row['candidate'])} | {_fmt_delta(row)} "
                     f"| {status} |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_core.json")
    parser.add_argument("--candidate", default="BENCH_core.fresh.json")
    parser.add_argument("--summary", default=None,
                        help="file to append the Markdown table to "
                             "(default: $GITHUB_STEP_SUMMARY if set)")
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    candidate = json.loads(Path(args.candidate).read_text())
    rows, failures = compare(baseline, candidate)

    table = format_markdown(rows)
    print(table)
    summary = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as handle:
            handle.write(table)

    if failures:
        for failure in failures:
            print(f"PERF GATE: {failure}", file=sys.stderr)
        return 1
    print("perf gate ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
