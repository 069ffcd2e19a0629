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


@dataclass(frozen=True)
class FrequencyModel:
    """Fmax as a function of logic utilization."""

    base_mhz: float = 250.0  # uncongested Fmax of the datapath
    knee: float = 0.50  # utilization where routing pressure starts
    slope_mhz: float = 235.0  # MHz lost per unit utilization past the knee
    fail_utilization: float = 0.92  # compilation failure threshold

    def __post_init__(self) -> None:
        if not 0.0 < self.knee < self.fail_utilization <= 1.0:
            raise ValueError("need 0 < knee < fail_utilization <= 1")
        if self.base_mhz <= 0 or self.slope_mhz < 0:
            raise ValueError("frequencies must be positive")

    def compiles(self, logic_utilization: float) -> bool:
        """Whether the design closes at all."""
        return logic_utilization < self.fail_utilization

    def fmax_mhz(self, logic_utilization: float) -> float:
        """Achievable clock at a given logic utilization."""
        if not self.compiles(logic_utilization):
            return 0.0
        if logic_utilization <= self.knee:
            return self.base_mhz
        return max(
            1.0, self.base_mhz - self.slope_mhz * (logic_utilization - self.knee)
        )

    def fmax_mhz_array(self, logic_utilization: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`fmax_mhz` over a utilization array.

        Element-for-element identical to the scalar method; the joint-space
        search uses it to gate candidate clock frequencies against
        congestion across whole evaluation grids at once.
        """
        util = np.asarray(logic_utilization, dtype=np.float64)
        decayed = np.maximum(1.0, self.base_mhz - self.slope_mhz * (util - self.knee))
        fmax = np.where(util <= self.knee, self.base_mhz, decayed)
        return np.where(util < self.fail_utilization, fmax, 0.0)


#: Calibrated to the paper's achieved 202-204 MHz at 68-73% ALMs.
DEFAULT_FREQUENCY_MODEL = FrequencyModel()


@dataclass(frozen=True)
class RefinedPoint:
    """A grid point re-evaluated at its congestion-limited frequency."""

    point: GridPoint
    fmax_mhz: float
    delivered_gops: float

    @property
    def compiles(self) -> bool:
        return self.fmax_mhz > 0.0


def refine_with_frequency(
    grid: Sequence[GridPoint],
    model: FrequencyModel = DEFAULT_FREQUENCY_MODEL,
) -> List[RefinedPoint]:
    """Re-rank exploration candidates by congestion-limited throughput.

    Throughput scales linearly with the clock in the compute-bound regime,
    so each point's nominal figure is rescaled by fmax / nominal.
    """
    refined = []
    for point in grid:
        fmax = model.fmax_mhz(point.utilization.logic)
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
