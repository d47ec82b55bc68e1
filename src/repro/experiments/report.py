"""Plain-text table rendering for experiment output.

Every experiment harness prints through these helpers so the benches and
the ``python -m repro.experiments.*`` entry points produce the same rows
the paper reports, in the same layout.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table", "format_gain"]


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render an ASCII table with a title line."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [title,
             " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
             sep]
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_gain(before: int, after: int) -> str:
    """``"45.90%"``-style gain figure (paper Table 1 convention)."""
    if before == 0:
        return "0.00%"
    return f"{100.0 * (before - after) / before:.2f}%"
