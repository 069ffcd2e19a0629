"""Paper-vs-measured comparison records.

Every paper experiment emits :class:`Comparison` rows, so
``abm-spconv experiments`` can report how closely the reproduction tracks
the published numbers and the test suite can hold each row to its stated
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class Comparison:
    """One paper-vs-measured data point."""

    experiment: str
    metric: str
    paper: float
    measured: float

    @property
    def ratio(self) -> float:
        """measured / paper (1.0 = exact reproduction)."""
        if self.paper == 0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.paper

    @property
    def relative_error(self) -> float:
        """|measured - paper| / |paper|."""
        if self.paper == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return abs(self.measured - self.paper) / abs(self.paper)


def render_comparisons(rows: Sequence[Comparison], title: str = "") -> str:
    """Monospace paper-vs-measured table."""
    from .tables import render_table

    table_rows: List[Sequence[object]] = [
        (row.metric, row.paper, row.measured, f"{row.ratio:.2f}x", f"{row.relative_error:.1%}")
        for row in rows
    ]
    return render_table(
        ("metric", "paper", "measured", "ratio", "rel err"),
        table_rows,
        title=title or None,
    )

