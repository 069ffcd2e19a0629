"""Accelerator configuration — the design parameters of paper Section 4.2.

The architecture is configured by:

- ``n_cu`` — number of parallel convolution units,
- ``n_knl`` — convolution kernels executed in parallel per CU (one "kernel
  engine" each),
- ``n_share`` — the paper's N: accumulators sharing one multiplier,
- ``s_ec`` — vectorization width. The FT-Buffer's entries are ``8 * S_ec``
  bits wide: each entry holds the same feature pixel across a batch of
  ``S_ec`` images, so every kernel engine drives ``S_ec`` accumulator lanes
  from one decoded weight index per cycle (this is also why the paper's
  bandwidth model amortizes weight fetches over "a minimum batch size of
  S_ec"),
- ``d_f`` / ``d_w`` / ``d_q`` — depths of the feature, weight and Q-Table
  buffers.

Derived quantities follow the accounting validated in DESIGN.md: the paper
configuration (N_knl=14, N_cu=3, N=4, S_ec=20) yields 840 accumulators and
210 shared multipliers + ~30 interface DSPs = 240 DSP blocks, matching
Table 2's 94-95% DSP utilization on the 256-DSP GXA7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AcceleratorConfig:
    """One point in the accelerator design space."""

    n_cu: int
    n_knl: int
    n_share: int
    s_ec: int
    d_f: int = 1568
    d_w: int = 2048
    d_q: int = 128
    freq_mhz: float = 200.0

    def __post_init__(self) -> None:
        if min(self.n_cu, self.n_knl, self.n_share, self.s_ec) < 1:
            raise ValueError("all parallelism parameters must be >= 1")
        if min(self.d_f, self.d_w, self.d_q) < 1:
            raise ValueError("all buffer depths must be >= 1")
        if self.freq_mhz <= 0:
            raise ValueError("frequency must be positive")

    # ---- derived array sizes ------------------------------------------

    @property
    def accumulators_per_cu(self) -> int:
        """Accumulator lanes in one CU: N_knl engines x S_ec lanes."""
        return self.n_knl * self.s_ec

    @property
    def total_accumulators(self) -> int:
        """N_acc — the first-class compute resource of the design."""
        return self.n_cu * self.accumulators_per_cu

    @property
    def multipliers_per_cu(self) -> int:
        """Shared multipliers in one CU (N accumulators per multiplier)."""
        return math.ceil(self.accumulators_per_cu / self.n_share)

    @property
    def total_multipliers(self) -> int:
        return self.n_cu * self.multipliers_per_cu

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"N_cu={self.n_cu} N_knl={self.n_knl} N={self.n_share} "
            f"S_ec={self.s_ec} (acc={self.total_accumulators}, "
            f"mult={self.total_multipliers}) @ {self.freq_mhz:g} MHz"
        )


#: The paper's final AlexNet configuration (Table 3).
PAPER_CONFIG_ALEXNET = AcceleratorConfig(
    n_cu=3, n_knl=14, n_share=4, s_ec=20, d_f=1152, d_w=1024, d_q=128, freq_mhz=202.0
)

#: The paper's final VGG16 configuration (Table 3).
PAPER_CONFIG_VGG16 = AcceleratorConfig(
    n_cu=3, n_knl=14, n_share=4, s_ec=20, d_f=1568, d_w=2048, d_q=128, freq_mhz=204.0
)
