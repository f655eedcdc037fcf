"""Docs may not name repository files that do not exist."""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: a backticked repo-relative path: `src/…`, `tests/…`, … ending in a
#: source, doc or data suffix (globs like `bench_*.py` do not match)
_REPO_PATH = re.compile(
    r"`((?:src|tests|benchmarks|tools|docs|examples)/[\w./-]+"
    r"\.(?:py|md|json|yml))`")


def test_docs_name_only_existing_files():
    documents = sorted((REPO_ROOT / "docs").glob("*.md"))
    documents.append(REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md")
    dangling = [
        f"{document.relative_to(REPO_ROOT)}: {path}"
        for document in documents
        for path in _REPO_PATH.findall(document.read_text())
        if not (REPO_ROOT / path).exists()]
    assert dangling == []
