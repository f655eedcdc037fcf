"""Docs may not name repository files, config values or watchdog knobs
that do not exist."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import re
from pathlib import Path

from repro.cluster import FailureDetector
from repro.core.config import CurpConfig, OverloadConfig, StorageProfile

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


def stale_config_names(text: str) -> list[str]:
    """Backticked config values in ``text`` that no config class has.
    A paragraph headed "Negative result" (a ``#`` heading over it, or
    its own bold lead-in) records a deletion and may name what is gone."""
    stale = []
    exempt_heading = False
    for paragraph in re.split(r"\n\s*\n", text):
        paragraph = paragraph.strip()
        if paragraph.startswith("#"):
            exempt_heading = paragraph.lstrip("# ").startswith(
                "Negative result")
        if exempt_heading or paragraph.startswith("**Negative result"):
            continue
        for span in _BACKTICKED.findall(paragraph):
            stale += [f"{owner}.{name}"
                      for owner, name in _CONFIG_NAME.findall(span)
                      if name not in _CONFIG_NAMES[owner]]
    return stale


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
