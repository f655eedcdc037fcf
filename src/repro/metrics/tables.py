"""ASCII renderers for benchmark output.

Each per-figure benchmark prints the paper's series as aligned rows so
paper-vs-measured comparisons (EXPERIMENTS.md) read directly off the
bench output.
"""

from __future__ import annotations

import typing


def format_table(headers: typing.Sequence[str],
                 rows: typing.Sequence[typing.Sequence[typing.Any]],
                 title: str | None = None) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _render(cell: typing.Any) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.2f}"
    return str(cell)
