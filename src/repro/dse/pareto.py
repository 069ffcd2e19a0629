"""Pareto analysis of the exploration grid.

The Figure 7 sweep picks one winner, but a practitioner porting the
design to another device (or leaving headroom for other logic on the
FPGA) wants the whole throughput-vs-resources frontier. A grid point is
Pareto-optimal when no other feasible point delivers more throughput with
no more of *any* resource.

The dominance test runs as one numpy broadcast per chunk of points
(objective and resource matrices, a ≤/< mask reduction) — the pairwise
Python path survives as :func:`pareto_frontier_reference` for
differential testing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .explorer import GridPoint


def _dominates(a: GridPoint, b: GridPoint) -> bool:
    """True when a is at least as good as b everywhere and better somewhere."""
    no_worse = (
        a.throughput_gops >= b.throughput_gops
        and a.resources.alms <= b.resources.alms
        and a.resources.dsps <= b.resources.dsps
        and a.resources.m20ks <= b.resources.m20ks
    )
    strictly_better = (
        a.throughput_gops > b.throughput_gops
        or a.resources.alms < b.resources.alms
        or a.resources.dsps < b.resources.dsps
        or a.resources.m20ks < b.resources.m20ks
    )
    return no_worse and strictly_better


def nondominated_mask(
    columns: Sequence[np.ndarray], directions: Sequence[str]
) -> np.ndarray:
    """Non-dominated mask over N points scored on arbitrary objectives.

    ``columns`` holds one value array per objective (all the same length);
    ``directions`` gives each objective's sense (``'max'`` or ``'min'``).
    A point survives when no other point is at least as good on every
    column and strictly better on one. Dominance is tested with one
    (candidates x chunk) mask reduction per chunk of points, so the
    pairwise matrices stay ~a few MB even on grids with tens of thousands
    of points. The grid frontier (:func:`pareto_frontier`) uses this test.
    """
    if len(columns) != len(directions):
        raise ValueError("need one direction per objective column")
    if not columns:
        raise ValueError("need at least one objective column")
    for direction in directions:
        if direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    arrays = [np.asarray(column) for column in columns]
    n = len(arrays[0])
    if any(len(array) != n for array in arrays):
        raise ValueError("objective columns must share one length")
    survives = np.empty(n, dtype=bool)
    chunk = max(1, min(n, 4_000_000 // max(n, 1)))
    for lo in range(0, n, chunk):
        sl = slice(lo, min(lo + chunk, n))
        no_worse: Optional[np.ndarray] = None
        strictly: Optional[np.ndarray] = None
        for array, direction in zip(arrays, directions):
            if direction == "max":
                nw = array[:, None] >= array[None, sl]
                st = array[:, None] > array[None, sl]
            else:
                nw = array[:, None] <= array[None, sl]
                st = array[:, None] < array[None, sl]
            no_worse = nw if no_worse is None else (no_worse & nw)
            strictly = st if strictly is None else (strictly | st)
        survives[sl] = ~(no_worse & strictly).any(axis=0)
    return survives


def _survivors_vectorized(feasible: Sequence[GridPoint]) -> np.ndarray:
    """Non-dominated mask over the feasible set via numpy broadcasting.

    Builds the objective/resource vectors once and delegates the chunked
    dominance reduction to :func:`nondominated_mask` — identical
    comparisons to :func:`_dominates`, so the surviving set is exactly
    the reference's.
    """
    throughput = np.array([p.throughput_gops for p in feasible], dtype=np.float64)
    alms = np.array([p.resources.alms for p in feasible], dtype=np.int64)
    dsps = np.array([p.resources.dsps for p in feasible], dtype=np.int64)
    m20ks = np.array([p.resources.m20ks for p in feasible], dtype=np.int64)
    return nondominated_mask(
        (throughput, alms, dsps, m20ks), ("max", "min", "min", "min")
    )


def pareto_frontier_reference(grid: Sequence[GridPoint]) -> List[GridPoint]:
    """Pairwise-Python reference for :func:`pareto_frontier`."""
    feasible = [point for point in grid if point.feasible]
    frontier = [
        point
        for point in feasible
        if not any(_dominates(other, point) for other in feasible)
    ]
    return sorted(frontier, key=lambda p: -p.throughput_gops)


def pareto_frontier(grid: Sequence[GridPoint]) -> List[GridPoint]:
    """Feasible, non-dominated points, sorted by throughput descending.

    Dominance runs as a numpy broadcast, identical to
    :func:`pareto_frontier_reference` for any grid.
    """
    feasible = [point for point in grid if point.feasible]
    if not feasible:
        return []
    survives = _survivors_vectorized(feasible)
    frontier = [point for point, keep in zip(feasible, survives) if keep]
    return sorted(frontier, key=lambda p: -p.throughput_gops)
