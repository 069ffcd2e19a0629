"""Operating-frequency model vs. logic congestion.

Paper Section 5.2: "a strict budget on logic resource (such as 70%) may
lead to failure in FPGA compilation or large degradation in operating
frequency. Therefore, several design candidates with close logic
utilization ratio are selected for final implementation."

This model captures that effect so the exploration can rank candidates by
*delivered* throughput rather than nominal 200 MHz: achievable Fmax is
flat until a congestion knee, degrades linearly beyond it, and compilation
fails outright near full logic. Constants are calibrated to the paper's
own data point — the implemented design closed timing at 202-204 MHz with
68-73% logic on the Stratix-V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .explorer import GridPoint

#: Calibrated to the paper's achieved 202-204 MHz at 68-73% ALMs.
BASE_MHZ = 250.0  # uncongested Fmax of the datapath
KNEE = 0.50  # utilization where routing pressure starts
SLOPE_MHZ = 235.0  # MHz lost per unit utilization past the knee
FAIL_UTILIZATION = 0.92  # compilation failure threshold


def fmax_mhz(logic_utilization: float) -> float:
    """Achievable clock at a given logic utilization (0 if it fails to
    compile)."""
    if not logic_utilization < FAIL_UTILIZATION:
        return 0.0
    if logic_utilization <= KNEE:
        return BASE_MHZ
    return max(1.0, BASE_MHZ - SLOPE_MHZ * (logic_utilization - KNEE))


def fmax_mhz_array(logic_utilization: np.ndarray) -> np.ndarray:
    """Vectorized :func:`fmax_mhz` over a utilization array.

    Element-for-element identical to the scalar function; the joint-space
    search uses it to gate candidate clock frequencies against congestion
    across whole evaluation grids at once.
    """
    util = np.asarray(logic_utilization, dtype=np.float64)
    decayed = np.maximum(1.0, BASE_MHZ - SLOPE_MHZ * (util - KNEE))
    fmax = np.where(util <= KNEE, BASE_MHZ, decayed)
    return np.where(util < FAIL_UTILIZATION, fmax, 0.0)


@dataclass(frozen=True)
class RefinedPoint:
    """A grid point re-evaluated at its congestion-limited frequency."""

    point: GridPoint
    fmax_mhz: float
    delivered_gops: float


def refine_with_frequency(grid: Sequence[GridPoint]) -> List[RefinedPoint]:
    """Re-rank exploration candidates by congestion-limited throughput.

    Throughput scales linearly with the clock in the compute-bound regime,
    so each point's nominal figure is rescaled by fmax / nominal.
    """
    refined = []
    for point in grid:
        fmax = fmax_mhz(point.utilization.logic)
        scale = fmax / point.config.freq_mhz if point.config.freq_mhz else 0.0
        refined.append(
            RefinedPoint(
                point=point,
                fmax_mhz=fmax,
                delivered_gops=point.throughput_gops * scale,
            )
        )
    refined.sort(key=lambda r: -r.delivered_gops)
    return refined
