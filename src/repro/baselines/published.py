"""Published accelerator baselines of paper Table 2.

Wraps the literature columns (designs [3], [4], [10], [12], [13]) with the
derived metrics the paper uses for cross-device comparison: performance
density (GOP/s per DSP) and frequency-normalized speedups.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads.paper_targets import TABLE2_COLUMNS, Table2Column


@dataclass(frozen=True)
class PublishedAccelerator:
    """One baseline column with derived comparison metrics."""

    column: Table2Column

    @property
    def key(self) -> str:
        return self.column.key

    @property
    def throughput_gops(self) -> float:
        return self.column.throughput_gops

    @property
    def perf_density(self) -> float:
        """GOP/s per DSP, recomputed from the raw columns."""
        return self.column.throughput_gops / self.column.dsps


def get_baseline(key: str) -> PublishedAccelerator:
    """Look one design up by its key (e.g. ``'zeng-vgg16'``)."""
    for column in TABLE2_COLUMNS:
        if column.key == key:
            return PublishedAccelerator(column)
    raise KeyError(
        f"unknown baseline {key!r}; available: "
        f"{', '.join(column.key for column in TABLE2_COLUMNS)}"
    )
