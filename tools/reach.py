#!/usr/bin/env python
"""Find the functions of ``src/repro`` that no run enters.

Usage (from any directory)::

    python tools/reach.py

Every function definition under ``src/repro`` (found with ``ast``,
nested ones included) is a candidate.  A ``sys.setprofile`` hook records
each code object entered while these runs execute in this process:

- the six ``benchmarks/e2e`` workloads at scale 0.02, seed 11
  (setup, window, drain and correctness checks);
- the ``examples/`` scripts;
- ``tools/bench_snapshot.py``'s snapshot (not written to disk);
- every ``benchmarks/bench_*.py`` test at ``REPRO_BENCH_SCALE`` (1 by
  default), with a stub ``benchmark`` fixture that calls the function
  once, because pytest-benchmark's timer hides calls from the hook.

A bench that raises is reported and its reach still counts: under the
hook the microbenchmarks' wall-clock floors can fail, and the real bench
step is what gates them.  Tests are not runs: code only ``tests/``
calls is unreached here.

The allowlist, ``tools/reach_allowlist.txt``, names each function that
may stay unreached, one ``module:qualname  reason`` line each (``#``
starts a comment).  The tool exits 1 on an unreached function missing from the allowlist, or on
an allowlist line whose function no longer exists; an allowlisted
function that a run now reaches is only reported.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib.util
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"

E2E_SCALE = 0.02
E2E_SEED = 11


@dataclasses.dataclass(frozen=True)
class FunctionDef:
    """One ``def`` under ``src/repro``."""

    module: str
    qualname: str
    path: str
    #: the line a code object reports: the first decorator's, else the def's
    first_line: int
    lines: int

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def code_key(self) -> tuple[str, int, str]:
        return self.path, self.first_line, self.qualname.rsplit(".", 1)[-1]


def function_defs(package: Path = PACKAGE) -> list[FunctionDef]:
    """Every function definition in ``package``, nested ones included,
    with Python's ``__qualname__`` spelling (``outer.<locals>.inner``)."""
    found: list[FunctionDef] = []
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent)
                          .with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found.append(FunctionDef(
                        module, qualname, str(path), first,
                        child.end_lineno - first + 1))
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


# ----------------------------------------------------------------------
# the runs
# ----------------------------------------------------------------------
class _Profiler:
    """Records every code object entered.  Code that installs its own
    profile function (``bench_snapshot``'s call counter) gets it chained
    behind this one rather than replacing it."""

    def __init__(self) -> None:
        self.codes: set = set()
        self._real_setprofile = sys.setprofile

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    def _setprofile(self, fn) -> None:
        if fn is None:
            self._real_setprofile(self._hook)
            return
        hook = self._hook

        def both(frame, event, arg):
            hook(frame, event, arg)
            fn(frame, event, arg)
        self._real_setprofile(both)

    def __enter__(self) -> "_Profiler":
        sys.setprofile = self._setprofile
        self._real_setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        self._real_setprofile(None)
        sys.setprofile = self._real_setprofile

    def keys(self) -> set[tuple[str, int, str]]:
        return {(code.co_filename, code.co_firstlineno, code.co_name)
                for code in self.codes}


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run_e2e(report) -> None:
    workloads = _load(REPO_ROOT / "benchmarks" / "e2e" / "workloads.py",
                      "reach_e2e_workloads")
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(E2E_SCALE)
        workload.setup(E2E_SEED, traced=False)
        workload.measure()
        workload.finish()
        result = workload.result()
        report(f"e2e {name}: {result['attempted']} attempted, "
               f"{result['failed']} failed")


def run_examples(report) -> None:
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_path(str(script), run_name="__main__")
            except SystemExit as exit_:
                if exit_.code not in (None, 0):
                    raise
        report(f"example {script.name}")


def run_snapshot(report) -> None:
    snapshot = _load(REPO_ROOT / "tools" / "bench_snapshot.py",
                     "reach_bench_snapshot")
    snapshot.snapshot()
    report("bench_snapshot")


class _StubBenchmark:
    """pytest-benchmark's fixture, reduced to one plain call."""

    def __init__(self) -> None:
        self.extra_info: dict = {}

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_timing):
        return fn(*args, **(kwargs or {}))


class _BenchPlugin:
    def __init__(self) -> None:
        self.raised: list[str] = []
        self.passed = 0

    @pytest.fixture
    def benchmark(self):
        return _StubBenchmark()

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.raised.append(report.nodeid)
        elif report.when == "call" and report.passed:
            self.passed += 1


def run_benches(report) -> None:
    plugin = _BenchPlugin()
    files = sorted(str(p) for p in (REPO_ROOT / "benchmarks")
                   .glob("bench_*.py"))
    with contextlib.redirect_stdout(io.StringIO()):
        pytest.main(["-q", "-p", "no:benchmark", "-p", "no:cacheprovider",
                     "--rootdir", str(REPO_ROOT), *files], plugins=[plugin])
    report(f"benches: {plugin.passed} passed, {len(plugin.raised)} raised")
    for nodeid in plugin.raised:
        report(f"  raised under the hook: {nodeid}")


def reached_keys(report) -> set[tuple[str, int, str]]:
    """Run everything under the hook; the code keys entered."""
    sys.path[:0] = [str(SRC), str(REPO_ROOT)]
    with tempfile.TemporaryDirectory() as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)      # whatever a run writes lands here
        try:
            with _Profiler() as profiler:
                run_e2e(report)
                run_examples(report)
                run_snapshot(report)
                run_benches(report)
        finally:
            os.chdir(cwd)
    return profiler.keys()


# ----------------------------------------------------------------------
# the verdict
# ----------------------------------------------------------------------
def read_allowlist(path: Path) -> dict[str, str]:
    """``module:qualname`` → reason."""
    entries: dict[str, str] = {}
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, reason = line.partition(" ")
        if ":" not in name or not reason.strip():
            raise ValueError(f"{path}:{number}: want 'module:qualname  "
                             f"reason', got {raw!r}")
        if name in entries:
            raise ValueError(f"{path}:{number}: {name} listed twice")
        entries[name] = reason.strip()
    return entries


def verdict(defs: list[FunctionDef], reached: set, allowlist: dict[str, str]
            ) -> tuple[list[FunctionDef], list[FunctionDef], list[str],
                       list[str]]:
    """(unreached functions, those of them not allowlisted, allowlist
    names that match no function, allowlisted names a run reached)."""
    unreached = [d for d in defs if d.code_key not in reached]
    names = {d.name for d in defs}
    unlisted = [d for d in unreached if d.name not in allowlist]
    missing = sorted(name for name in allowlist if name not in names)
    unreached_names = {d.name for d in unreached}
    now_reached = sorted(name for name in allowlist
                         if name in names and name not in unreached_names)
    return unreached, unlisted, missing, now_reached


def main() -> int:
    allowlist = read_allowlist(ALLOWLIST)
    defs = function_defs()
    reached = reached_keys(lambda line: print(line, file=sys.stderr))
    unreached, unlisted, missing, now_reached = verdict(defs, reached,
                                                        allowlist)
    print(f"{len(defs)} function definitions in src/repro; "
          f"{len(unreached)} unreached "
          f"({sum(d.lines for d in unreached)} lines), "
          f"{len(allowlist)} allowlisted")
    for name in now_reached:
        print(f"note: allowlisted but reached: {name}")
    for name in missing:
        print(f"FAIL: allowlisted, no such function: {name}")
    for d in unlisted:
        rel = Path(d.path).relative_to(REPO_ROOT)
        print(f"FAIL: unreached, not allowlisted: {d.name} "
              f"({rel}:{d.first_line}, {d.lines} lines)")
    return 1 if unlisted or missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
