"""The shared CURP layer (``core/curp.py``): the unsynced suffix's
conflict check and gc pairs, the rule that the client's update loop
(its fan-out and its ``sync``) and the witness gc are written only
there, and the rule that only the host and the RPC transport decide
whether work outlived its host's life."""

from __future__ import annotations

import ast
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.curp import UnsyncedSuffix
from repro.kvstore.operations import (
    Delete,
    Increment,
    MultiWrite,
    Read,
    Write,
    commutative,
)
from repro.rifl import RpcId

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

_KEYS = st.sampled_from(["a", "b", "c", "d"])
_OPS = st.one_of(
    st.builds(Write, _KEYS, st.integers(0, 3)),
    st.builds(Read, _KEYS),
    st.builds(Increment, _KEYS),
    st.builds(Delete, _KEYS),
    st.lists(_KEYS, min_size=1, max_size=3, unique=True).map(
        lambda keys: MultiWrite(tuple((k, 0) for k in keys))),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=12), probe=_OPS,
       cut=st.integers(0, 12))
def test_conflicts_matches_a_full_scan(ops, probe, cut):
    suffix = UnsyncedSuffix()
    for position, op in enumerate(ops, 1):
        suffix.append(position, op, RpcId(1, position))
    suffix.durable(cut)
    scan = [position for position, op in enumerate(ops, 1)
            if position > cut and not commutative(probe, op)]
    assert suffix.conflicts(probe) == (scan[-1] if scan else 0)


def test_durable_returns_gc_pairs_and_prunes_the_index():
    suffix = UnsyncedSuffix()
    first = MultiWrite((("a", 1), ("b", 2)))
    suffix.append(1, first, RpcId(1, 1))
    suffix.append(2, Read("a"), None)      # nothing to collect
    suffix.append(3, Write("a", 3), RpcId(1, 3))
    assert suffix.conflicts(Write("a", 0)) == 3
    pairs = suffix.durable(2)
    assert pairs == [(h, RpcId(1, 1)) for h in first.touched_hashes()]
    assert len(suffix) == 1
    assert suffix.conflicts(Write("b", 0)) == 0
    assert suffix.durable(3) == [(Write("a", 3).touched_hashes()[0],
                                  RpcId(1, 3))]
    assert len(suffix) == 0 and suffix._by_hash == {}


#: RPC methods only ``core/curp.py`` may send: the witness record, gc
#: and recovery-data RPCs of all three backends, and the client's sync
CURP_METHODS = {"record", "w_record", "gc", "w_gc", "get_recovery_data",
                "sync"}


def _rpc_sites(path: pathlib.Path):
    """(enclosing function, method) of every ``call`` / ``call_cb``
    naming a literal method in ``path``."""
    tree = ast.parse(path.read_text())
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("call", "call_cb")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                yield function.name, node.args[1].value


def test_record_and_gc_rpcs_are_sent_only_by_the_curp_layer():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "core/curp.py":
            continue
        for function, method in _rpc_sites(path):
            if method in CURP_METHODS:
                offenders.append(f"{relative}:{function} -> {method!r}")
    assert offenders == []
    # the scan does see the layer's own sites
    assert {method for _f, method in _rpc_sites(SRC / "core" / "curp.py")} \
        == {"record", "gc", "sync"}


#: the two timers that serve no request, and so keep their own check
#: of the host life they were armed in
FLUSH_TIMERS = {("core/master.py", "_arm_flush_timer"),
                ("redislike/server.py", "_arm_flush_timer")}


def _incarnation_reads(path: pathlib.Path):
    """Outermost enclosing function of every ``.incarnation`` read in
    ``path``."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, function or child.name)
                continue
            if (isinstance(child, ast.Attribute)
                    and child.attr == "incarnation"
                    and isinstance(child.ctx, ast.Load)):
                yield function
            yield from visit(child, function)
    yield from visit(ast.parse(path.read_text()), None)


def test_only_the_transport_and_the_flush_timers_read_the_host_life():
    """Fail-stop for work a request started is ``ctx.answer`` /
    ``ctx.gone()`` on the delivered request: outside ``net/host.py`` and
    ``rpc/transport.py`` nothing reads a host's incarnation, save the
    two flush timers (the scan sees both)."""
    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in ("net/host.py", "rpc/transport.py"):
            continue
        readers |= {(relative, function)
                    for function in _incarnation_reads(path)}
    assert readers == FLUSH_TIMERS


def _calls(path: pathlib.Path):
    """(innermost enclosing function, call node) of every call in
    ``path``; module-level calls have function None."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                yield function, child
            yield from visit(child, function)
    yield from visit(ast.parse(path.read_text()), None)


def test_replay_bracket_and_stale_rpc_are_written_once():
    """Outside ``repro/rifl/``, only the shared §4.6 replay enters and
    leaves RIFL's recovery mode, and only ``ResultRegistry.admit``
    raises ``STALE_RPC`` — for the master, Redis and Raft alike."""
    brackets, stale = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for function, call in _calls(path):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in ("begin_recovery", "end_recovery") \
                    and not relative.startswith("rifl/"):
                brackets.add((relative, function, name))
            if name == "AppError" and call.args \
                    and isinstance(call.args[0], ast.Constant) \
                    and call.args[0].value == "STALE_RPC":
                stale.add((relative, function))
    assert brackets == {("core/curp.py", "replay", "begin_recovery"),
                        ("core/curp.py", "replay", "end_recovery")}
    assert stale == {("rifl/result_registry.py", "admit")}



def test_one_client_update_loop():
    """The client's update protocol is ``core.curp.run_update`` on every
    backend: nothing else calls ``fan_out``, and no server registers the
    untargeted ``wait_commit`` slow path any more."""
    fan_outs, registered = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for function, call in _calls(path):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name == "fan_out":
                fan_outs.add((relative, function))
            if name == "register" and call.args \
                    and isinstance(call.args[0], ast.Constant):
                registered.add(call.args[0].value)
    assert fan_outs == {("core/curp.py", "run_update")}
    assert "sync" in registered and "wait_commit" not in registered
