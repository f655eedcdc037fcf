"""The reachability gate (tools/reach.py) without its runs: the committed
allowlist names only functions that exist, and the verdict fails on an
unreached function it does not list."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_spec = importlib.util.spec_from_file_location(
    "reach", REPO_ROOT / "tools" / "reach.py")
reach = sys.modules["reach"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_every_allowlisted_function_exists():
    names = {d.name for d in reach.function_defs()}
    allowlist = reach.read_allowlist(reach.ALLOWLIST)
    assert sorted(set(allowlist) - names) == []


def test_function_defs_spell_qualnames_and_decorated_first_lines(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "class A:\n"
        "    @property\n"
        "    def p(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner()\n"
        "\n"
        "def f():\n"
        "    pass\n")
    found = {d.name: (d.first_line, d.lines)
             for d in reach.function_defs(package)}
    assert found == {"pkg.mod:A.p": (2, 5),
                     "pkg.mod:A.p.<locals>.inner": (4, 2),
                     "pkg.mod:f": (8, 2)}
    # the keys match the code objects Python compiles for them
    namespace: dict = {}
    exec(compile((package / "mod.py").read_text(),
                 str(package / "mod.py"), "exec"), namespace)
    code = namespace["A"].p.fget.__code__
    assert (code.co_filename, code.co_firstlineno, code.co_name) in {
        d.code_key for d in reach.function_defs(package)}


def test_verdict_fails_on_an_unlisted_function_and_a_stale_line():
    def fn(qualname, line):
        return reach.FunctionDef("m", qualname, "m.py", line, 2)

    defs = [fn("reached", 1), fn("listed", 4), fn("new", 7)]
    reached = {defs[0].code_key}
    unreached, unlisted, missing, now_reached = reach.verdict(
        defs, reached, {"m:listed": "why", "m:gone": "why",
                        "m:reached": "why"})
    assert [d.name for d in unreached] == ["m:listed", "m:new"]
    assert [d.name for d in unlisted] == ["m:new"]
    assert missing == ["m:gone"]
    assert now_reached == ["m:reached"]


def test_allowlist_lines_need_a_reason(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("# comment\n\nm:f  a reason\n")
    assert reach.read_allowlist(path) == {"m:f": "a reason"}
    path.write_text("m:f\n")
    with pytest.raises(ValueError, match="reason"):
        reach.read_allowlist(path)
