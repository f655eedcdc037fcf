"""Docs may not name repository files, config values, watchdog knobs,
kernel / network attributes, operation methods or ``BENCH_core.json``
rows that do not exist."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import re
from pathlib import Path

import pytest

from repro import verify
from repro.cluster import FailureDetector
from repro.cluster.coordinator import Coordinator
from repro.core.client import CurpClient
from repro.core.config import CurpConfig, OverloadConfig, StorageProfile
from repro.core.messages import ReadArgs
from repro.core.transactions import Transaction
from repro.kvstore.hashing import key_hash
from repro.kvstore.operations import Operation, Read
from repro.net import Network
from repro.rpc import RpcContext, RpcTransport
from repro.rpc.transport import RpcRequest
from repro.sim import Simulator
from repro.verify import History

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: a backticked repo-relative path: `src/…`, `tests/…`, … ending in a
#: source, doc or data suffix (globs like `bench_*.py` do not match)
_REPO_PATH = re.compile(
    r"`((?:src|tests|benchmarks|tools|docs|examples)/[\w./-]+"
    r"\.(?:py|md|json|yml))`")


#: how docs spell a config value (`CurpConfig.f`,
#: `config.overload.enabled`) -> the fields and properties that exist
_CONFIG_NAMES = {
    spelling: {f.name for f in dataclasses.fields(cls)} | set(vars(cls))
    for cls, spellings in (
        (CurpConfig, ("CurpConfig", "config")),
        (OverloadConfig, ("OverloadConfig", "config.overload")),
        (StorageProfile, ("StorageProfile", "config.storage")))
    for spelling in spellings}
_CONFIG_NAME = re.compile(
    r"\b(%s)\.([a-z_]\w*)" % "|".join(
        re.escape(spelling)
        for spelling in sorted(_CONFIG_NAMES, key=len, reverse=True)))
_BACKTICKED = re.compile(r"`([^`\n]+)`")


def documents() -> list[Path]:
    return sorted((REPO_ROOT / "docs").glob("*.md")) + [
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]


def test_docs_name_only_existing_files():
    dangling = [
        f"{document.relative_to(REPO_ROOT)}: {path}"
        for document in documents()
        for path in _REPO_PATH.findall(document.read_text())
        if not (REPO_ROOT / path).exists()]
    assert dangling == []


def current_spans(text: str) -> list[str]:
    """Backticked spans in ``text`` that describe the tree as it is.
    A paragraph headed "Negative result" (a ``#`` heading over it, or
    its own bold lead-in) records a deletion and may name what is gone."""
    spans = []
    exempt_heading = False
    for paragraph in re.split(r"\n\s*\n", text):
        paragraph = paragraph.strip()
        if paragraph.startswith("#"):
            exempt_heading = paragraph.lstrip("# ").startswith(
                "Negative result")
        if not (exempt_heading or paragraph.startswith("**Negative result")):
            spans += _BACKTICKED.findall(paragraph)
    return spans


def stale_config_names(text: str) -> list[str]:
    """Backticked config values in ``text`` that no config class has."""
    return [f"{owner}.{name}"
            for span in current_spans(text)
            for owner, name in _CONFIG_NAME.findall(span)
            if name not in _CONFIG_NAMES[owner]]


def test_docs_name_only_existing_config_values():
    stale = [f"{document.relative_to(REPO_ROOT)}: {name}"
             for document in documents()
             for name in stale_config_names(document.read_text())]
    assert stale == []


def test_stale_config_name_check_sees_unknown_names():
    text = ("## Flags\n\nSet `CurpConfig.no_such_knob` or "
            "`config.overload.enabled`; `config.uses_witnesses` is derived."
            "\n\n**Negative result: gone.**  `config.deleted_flag` lost."
            "\n\n## Negative result: batching\n\n`config.deleted_delay`.")
    assert stale_config_names(text) == ["CurpConfig.no_such_knob"]


def _kernel_objects() -> dict[str, object]:
    """One live instance per class docs name attributes of, so that
    attributes set in ``__init__`` count as well as methods."""
    sim = Simulator()
    network = Network(sim)
    transport = RpcTransport(network.add_host("h"))
    coordinator = Coordinator(network.add_host("coordinator"), network,
                              CurpConfig(f=1))
    master = coordinator.create_master(
        "m0", network.add_host("m0-host"),
        backup_hosts=[network.add_host("b0")],
        witness_hosts=[network.add_host("w0")])
    endpoint = coordinator.witness_endpoints["w0"]
    client = CurpClient(network.add_host("c0"), CurpConfig(f=1),
                        coordinator="coordinator")
    request = RpcRequest(1, "c0", "update", None)
    history = History()
    record = history.begin(1, Read("k"), 0.0)
    return {"ReadArgs": ReadArgs("k", key_hash("k")), "KVStore": master.store,
            "Simulator": sim, "Network": network, "Host": transport.host,
            "RpcTransport": transport, "TrafficStats": network.stats,
            "Coordinator": coordinator, "WitnessEndpoint": endpoint,
            "WitnessServer": endpoint.tenants["m0"], "CurpMaster": master,
            "CurpClient": client, "RpcRequest": request,
            "RpcContext": request,
            "FailureDetector": FailureDetector(coordinator, []),
            "Transaction": Transaction(client), "History": history,
            "OpRecord": record, "verify": verify}


_KERNEL_OBJECTS = _kernel_objects()
_KERNEL_NAME = re.compile(
    r"\b(%s)\.(\w+)" % "|".join(map(re.escape, _KERNEL_OBJECTS)))


def stale_kernel_attributes(text: str) -> list[str]:
    """Backticked ``Owner.x`` for an owner class of ``_KERNEL_OBJECTS``
    (``Simulator``, ``Coordinator``, ``WitnessEndpoint``, …) that the
    class lacks."""
    return [f"{owner}.{name}"
            for span in current_spans(text)
            for owner, name in _KERNEL_NAME.findall(span)
            if not hasattr(_KERNEL_OBJECTS[owner], name)]


def test_docs_name_only_existing_kernel_attributes():
    stale = [f"{document.relative_to(REPO_ROOT)}: {name}"
             for document in documents()
             for name in stale_kernel_attributes(document.read_text())]
    assert stale == []


def test_stale_kernel_attribute_check_sees_unknown_names():
    text = ("## Send path\n\n`Host.send(dst, payload)` feeds "
            "`Network._admit`; `Simulator.rng`, `TrafficStats.messages_sent`"
            " and `RpcTransport.call_cb` exist, `Host._gone_buffer` and "
            "`WitnessHost.x` do not matter, `Simulator.at_noon` is stale."
            "\n\n**Negative result: hooks.**  `Simulator.gone_hook`."
            "\n\n## Negative result: paths\n\n`Network._gone_path`.")
    assert stale_kernel_attributes(text) == ["Host._gone_buffer",
                                             "Simulator.at_noon"]


def test_stale_kernel_attribute_check_sees_removed_witness_api():
    text = ("`Coordinator.add_witness_host` stays; "
            "`Coordinator.add_witness_endpoint` and `WitnessEndpoint.stats` "
            "are gone.")
    assert stale_kernel_attributes(text) == [
        "Coordinator.add_witness_endpoint", "WitnessEndpoint.stats"]


def test_stale_kernel_attribute_check_sees_removed_rpc_and_client_api():
    assert RpcContext is RpcRequest
    text = ("`RpcContext.reply`, `RpcRequest.src` and `CurpClient.update` "
            "stay; `RpcContext._request` and `CurpClient._fanout` are gone.")
    assert stale_kernel_attributes(text) == [
        "RpcContext._request", "CurpClient._fanout"]


def test_stale_kernel_attribute_check_sees_removed_read_api():
    text = ("`ReadArgs.key_hash`, `KVStore.lookup` and `CurpMaster."
            "_read_executed` stay; `CurpMaster._read_reply` and "
            "`ReadArgs.return_versions` are gone.")
    assert stale_kernel_attributes(text) == [
        "CurpMaster._read_reply", "ReadArgs.return_versions"]


def test_stale_kernel_attribute_check_sees_removed_watchdog_api():
    text = ("`FailureDetector.watched` and `FailureDetector.evidence_window` "
            "stay; `FailureDetector.flap_suppressed`, `FailureDetector."
            "probe_slo_cap` and `FailureDetector.quarantined` are gone.")
    assert stale_kernel_attributes(text) == [
        "FailureDetector.flap_suppressed", "FailureDetector.probe_slo_cap",
        "FailureDetector.quarantined"]


def test_stale_kernel_attribute_check_sees_removed_transaction_api():
    text = ("`Transaction.commit`, `Transaction.participants` and "
            "`Transaction._prepare_one` stay; `Transaction._read_values` "
            "is gone, and `RecordedTransaction.history` is not checked.")
    assert stale_kernel_attributes(text) == ["Transaction._read_values"]


def test_stale_kernel_attribute_check_sees_removed_verify_api():
    text = ("`History.begin`, `History.by_key`, `OpRecord.kind`, "
            "`OpRecord.op` and `verify.check_linearizable` stay; "
            "`History.begin_op`, `OpRecord.argument`, `verify.models` and "
            "`verify.RegisterModel` are gone.")
    assert stale_kernel_attributes(text) == [
        "History.begin_op", "OpRecord.argument", "verify.models",
        "verify.RegisterModel"]


@pytest.mark.parametrize("owner,present", [
    ("Simulator", "schedule_at"), ("Host", "_rx_lead"),
    ("Network", "drop_rate"), ("RpcTransport", "pending_calls"),
    ("TrafficStats", "payloads_sent"), ("Coordinator", "witness_servers"),
    ("WitnessEndpoint", "tenants"), ("WitnessServer", "records_admitted"),
    ("CurpMaster", "replay_witness_requests"), ("RpcRequest", "replied"),
    ("RpcContext", "reply_error"), ("CurpClient", "read_nearby"),
    ("ReadArgs", "key_hash"), ("KVStore", "lookup"),
    ("FailureDetector", "watched"), ("Transaction", "fast_path"),
    ("History", "records"), ("OpRecord", "key"),
    ("verify", "audit_atomicity")])
def test_kernel_attribute_check_covers_each_class(owner, present):
    """Attributes set in ``__init__`` and properties count as present;
    an unknown name on the same class is stale."""
    text = f"`{owner}.{present}` and `{owner}.no_such_attribute`."
    assert stale_kernel_attributes(text) == [f"{owner}.no_such_attribute"]


def stale_watchdog_knobs(text: str) -> list[str]:
    """Backticked first-column names of the table under "Tunables
    (constructor arguments)" that ``FailureDetector.__init__`` does not
    take; ``["<no table>"]`` when the table is not found."""
    known = inspect.signature(FailureDetector.__init__).parameters
    lines = text.partition("Tunables (constructor arguments)")[2].splitlines()
    rows = list(itertools.takewhile(
        lambda line: line.startswith("|"),
        itertools.dropwhile(lambda line: not line.startswith("|"), lines)))
    knobs = [name for row in rows
             for name in _BACKTICKED.findall(row.split("|")[1])]
    if not knobs:
        return ["<no table>"]
    return [name for name in knobs if name not in known]


def test_faults_doc_names_only_existing_watchdog_knobs():
    text = (REPO_ROOT / "docs" / "FAULTS.md").read_text()
    assert stale_watchdog_knobs(text) == []


def test_watchdog_knob_check_sees_unknown_names():
    table = ("Tunables (constructor arguments):\n\n| knob | default |\n"
             "| --- | --- |\n| `interval` | 1000 |\n| `no_such_knob` | off |"
             "\n\nDerived: `evidence_window` is not a row.")
    assert stale_watchdog_knobs(table) == ["no_such_knob"]
    assert stale_watchdog_knobs("no tunables here") == ["<no table>"]


#: how docs name an operation method: `Operation.name`, a call
#: `op.name(…)`, or a whole span `name()` in the conflict-footprint
#: vocabulary (`…_keys()`, `…_hashes()`)
_OPERATION_METHOD = re.compile(
    r"\bOperation\.(\w+)|\bop\.(\w+)\(|^(\w+_(?:keys|hashes))\(\)$")


def stale_operation_methods(text: str) -> list[str]:
    """Backticked operation method names that ``Operation`` lacks."""
    return [name for span in _BACKTICKED.findall(text)
            for groups in _OPERATION_METHOD.findall(span)
            for name in groups if name and not hasattr(Operation, name)]


def test_docs_name_only_existing_operation_methods():
    stale = [f"{document.relative_to(REPO_ROOT)}: {name}"
             for document in documents()
             for name in stale_operation_methods(document.read_text())]
    assert stale == []


def test_operation_method_check_sees_unknown_names():
    text = ("`Operation.touched_keys()`, `touched_hashes()` and "
            "`key_hashes()`; `owns(op.read_keys())`, `op.gone()`, "
            "`Operation.missing`, `op.key` and `in_ranges(hashes, ranges)`.")
    assert stale_operation_methods(text) == ["key_hashes", "gone", "missing"]


def bench_paths(node: dict, prefix: str = "") -> set[str]:
    """Every dotted path into a snapshot, groups as well as rows."""
    paths = set()
    for key, value in node.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= bench_paths(value, f"{prefix}{key}.")
    return paths


def stale_bench_rows(text: str, snapshot: dict) -> list[str]:
    """Backticked ``section.key`` spans, ``section`` a top-level section
    of ``snapshot``, that name no row or group in it."""
    sections = [key for key, value in snapshot.items()
                if isinstance(value, dict)]
    name = re.compile(r"(?:%s)\.[\w.]+" % "|".join(map(re.escape, sections)))
    known = bench_paths(snapshot)
    return [span for span in _BACKTICKED.findall(text)
            if name.fullmatch(span) and span not in known]


def test_docs_name_only_existing_bench_rows():
    snapshot = json.loads((REPO_ROOT / "BENCH_core.json").read_text())
    stale = [f"{document.relative_to(REPO_ROOT)}: {name}"
             for document in documents()
             for name in stale_bench_rows(document.read_text(), snapshot)]
    assert stale == []


def test_stale_bench_row_check_sees_unknown_names():
    snapshot = {"python": "3.11.7",
                "overload": {"retention": 1.0,
                             "goodput_by_offered": {"0.5x": {"on": 1}}}}
    text = ("`overload.retention`, `overload.goodput_by_offered.0.5x.on`, "
            "`overload.goodput_by_offered`, `overload.collapse_ratio_off`, "
            "`rpc.transport`, `python.version` and `overload.x/y`.")
    assert stale_bench_rows(text, snapshot) == ["overload.collapse_ratio_off"]


#: a smoke row named with a value right after it (`row` 163.93, `row`
#: reads 605, `row` = 15.067); a value followed by "→", "before" or "at
#: the parent" is history and is not read as the current snapshot
_SMOKE_VALUE = re.compile(
    r"`((?:fig6_smoke|ycsb_b_smoke)\.\w+)`\s*(?:reads|is|=|:)?\s*"
    r"(\d[\d,]*(?:\.\d+)?)(?![\d,.]*\d)"
    r"(?!\s*(?:→|before\b|at the parent\b))")


def stale_smoke_values(text: str, snapshot: dict) -> list[str]:
    """``row value`` pairs in ``text`` that present a ``fig6_smoke`` /
    ``ycsb_b_smoke`` row as the current snapshot with another value."""
    stale = []
    for row, value in _SMOKE_VALUE.findall(text):
        section, key = row.split(".", 1)
        current = snapshot.get(section, {}).get(key)
        if current is None or float(value.replace(",", "")) != current:
            stale.append(f"{row} {value} (snapshot: {current})")
    return stale


def test_docs_quote_current_smoke_rows_as_committed():
    snapshot = json.loads((REPO_ROOT / "BENCH_core.json").read_text())
    stale = [f"{document.relative_to(REPO_ROOT)}: {pair}"
             for document in documents()
             for pair in stale_smoke_values(document.read_text(), snapshot)]
    assert stale == []


def test_stale_smoke_value_check_sees_drifted_values():
    snapshot = {"fig6_smoke": {"py_calls_per_op": 163.93,
                               "retained_bytes_per_op": 1605},
                "ycsb_b_smoke": {"events_per_op": 5.995}}
    text = ("`fig6_smoke.py_calls_per_op` 165.97 → 163.93 is history; "
            "`ycsb_b_smoke.events_per_op` reads 6.1 before and "
            "`fig6_smoke.py_calls_per_op` is (4,000 µs pass) counted; "
            "`fig6_smoke.retained_bytes_per_op` is 1,605 and "
            "`ycsb_b_smoke.events_per_op` = 5.995 are current; "
            "`fig6_smoke.py_calls_per_op` reads 165.97 and "
            "`fig6_smoke.retained_bytes_per_op` = 1,035 are stale; "
            "`ycsb_b_smoke.events_per_op` in the table is not a value.")
    assert stale_smoke_values(text, snapshot) == [
        "fig6_smoke.py_calls_per_op 165.97 (snapshot: 163.93)",
        "fig6_smoke.retained_bytes_per_op 1,035 (snapshot: 1605)"]
