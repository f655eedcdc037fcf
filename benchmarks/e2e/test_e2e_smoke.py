"""Smoke test of the end-to-end benchmark (collected by tier-1).

Runs all six workloads at scale 0.02 through the same command a user
types, and checks the contract between ``BENCHMARK.json`` and what the
benchmark prints: every metric named in one appears in the other, with
its unit, and no operation fails.  The tracer's promise that a vanished
entry point is reported rather than raised is unit-tested beside it.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}",
                                                  HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[str, dict, pathlib.Path]:
    scratch = tmp_path_factory.mktemp("e2e")
    out = scratch / "report.json"
    done = subprocess.run(RUN + ["--scale", "0.02", "--out", str(out),
                                 "--trace-out", str(scratch)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text()), scratch


def test_every_workload_runs_and_nothing_fails(spec, smoke):
    _stdout, report, _scratch = smoke
    assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, result in report["workloads"].items():
        assert result["correct"], name
        assert result["failed"] == 0, name
        assert result["end_to_end"]["failed_share"] == 0, name
        assert result["missing_entry_points"] == [], name
    assert report["workloads"]["kill_master_openloop"]["sim"][
        "recoveries"] == 1


def test_names_and_units_match_benchmark_json(spec, smoke):
    stdout, _report, _scratch = smoke
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    printed: dict[str, set[str]] = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in {w["name"]
                                            for w in spec["workloads"]}:
            workload, metric, _value, unit = parts
            assert units.get(metric) == unit, line
            printed.setdefault(metric, set()).add(workload)
    assert set(printed) == set(units)
    # read and outage metrics exist only where there are reads / a fault
    partial = {"sim_read_p50_us", "sim_read_p99_us", "sim_outage_us"}
    for metric, workloads in printed.items():
        if metric not in partial:
            assert len(workloads) == len(spec["workloads"]), metric
    assert printed["sim_outage_us"] == {"kill_master_openloop"}


def test_driver_contract_output(spec):
    """``--workload W --seed N --seconds S --trace 0|1`` ends with one
    JSON object holding exactly the declared metrics."""
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        done = subprocess.run(
            RUN + ["--workload", "seq_write_f3", "--seed", "12",
                   "--seconds", "0.2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert {name: m["unit"] for name, m in last["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}


def test_compare_judges_each_metric(smoke, tmp_path):
    _stdout, report, _scratch = smoke
    base = tmp_path / "a.json"
    change = tmp_path / "b.json"
    base.write_text(json.dumps(report))
    slower = json.loads(json.dumps(report))
    rates = slower["workloads"]["seq_write_f3"]
    rates["end_to_end"]["wall_ops_per_s"] *= 0.5
    rates["slice_rates"] = [r * 0.5 for r in rates["slice_rates"]]
    slower["workloads"]["closed_write_f3"]["slice_rates"][0] *= 3.0
    change.write_text(json.dumps(slower))
    done = subprocess.run(RUN + ["--compare", str(base), str(change)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    verdicts = {tuple(line.split()[:2]): line.split()[-1]
                for line in done.stdout.splitlines()[1:]}
    assert verdicts[("seq_write_f3", "wall_ops_per_s")] == "regressed"
    assert verdicts[("closed_write_f3", "wall_ops_per_s")] == "unresolved"
    assert verdicts[("seq_write_f3", "sim_write_p50_us")] == "ok"


def test_missing_entry_point_is_listed_not_raised():
    trace = _load("trace")
    tracer = trace.Tracer()
    tracer.install((
        ("repro.sim.simulator", "Simulator", "no_such_method", "call"),
        ("repro.no_such_module", "Thing", "method", "call"),
        ("repro.sim.simulator", "NoSuchClass", "run", "call"),
        ("repro.kvstore.hashing", None, "no_such_function", "call"),
        ("repro.sim.simulator", "Simulator", "timeout", "call"),
    ))
    try:
        assert tracer.missing == [
            "repro.sim.simulator:Simulator.no_such_method",
            "repro.no_such_module:Thing.method",
            "repro.sim.simulator:NoSuchClass.run",
            "repro.kvstore.hashing:no_such_function",
        ]
        from repro.sim import Simulator
        sim = Simulator(seed=1)
        sim.timeout(1.0)          # the one real entry point is traced
        sim.run()
        assert tracer.snapshot()["tally"]["Simulator.timeout"] == 1
    finally:
        tracer.uninstall()
    from repro.sim.simulator import Simulator as Restored
    assert not hasattr(Restored.timeout, "__wrapped__")


def test_trace_out_is_chrome_trace_json(smoke):
    _stdout, _report, scratch = smoke
    events = json.loads(
        (scratch / "seq_write_f3.trace.json").read_text())["traceEvents"]
    tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {"sim", "net", "rpc", "core.client", "core.master",
            "core.witness", "kvstore"} <= tracks
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 for e in spans)
    keyed = {e["args"]["rpc_id"] for e in spans if "rpc_id" in e["args"]}
    ops = {e["id"] for e in events if e["ph"] == "b"}
    assert keyed and keyed == ops


def test_untraced_run_imports_nothing_private():
    """The end-to-end numbers must survive refactors of ``src/``: the
    workloads may name only public modules and attributes."""
    import ast

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    tree = ast.parse((HERE / "workloads.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") \
                + [alias.name for alias in node.names]
            assert not any(map(private, names)), ast.dump(node)
        if isinstance(node, ast.Attribute) and private(node.attr):
            own = isinstance(node.value, ast.Name) and node.value.id == "self"
            assert own, f"private attribute .{node.attr}, line {node.lineno}"
