"""Text-table rendering used by the experiment harness.

The benchmark harness prints the same rows the paper reports (Tables 1-6);
these helpers keep that output aligned and consistent.
"""

from __future__ import annotations

from typing import Sequence


def fmt_int(x: int | float) -> str:
    """Thousands-separated integer rendering, matching the paper (e.g. 3,231)."""
    return f"{int(round(x)):,}"


def fmt_float(x: float, nd: int = 2) -> str:
    return f"{x:.{nd}f}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a simple aligned text table.

    >>> print(render_table(["a", "b"], [[1, 22], [333, 4]]))
    a    b
    1    22
    333  4
    """
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * max(len(title), sum(widths) + 2 * (len(widths) - 1)))
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)
