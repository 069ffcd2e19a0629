"""Plain-text table rendering for experiment reports."""

from __future__ import annotations

from typing import List, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a monospace table with right-aligned numeric columns."""
    cells = [[_format(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for original, row in zip(rows, cells):
        rendered = []
        for i, (value, cell) in enumerate(zip(original, row)):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                rendered.append(cell.rjust(widths[i]))
            else:
                rendered.append(cell.ljust(widths[i]))
        lines.append("  ".join(rendered))
    return "\n".join(lines)


def _format(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000:
            return f"{value:,.0f}"
        if magnitude >= 10:
            return f"{value:.1f}"
        if magnitude >= 0.1:
            return f"{value:.2f}"
        return f"{value:.3g}"
    return str(value)
