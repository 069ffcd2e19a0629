"""Resource Requirement Model (paper Section 5.1).

The paper estimates logic, DSP and on-chip memory from the design
parameters through platform constants C0..C7, obtained by characterizing
the target FPGA with a few fast compiles. The only equation that survives
in the available text is the memory one,

    C_mem = C5 + (C6 * S_ec + C7 * N_knl) * N_cu,

whose structure (a fixed term plus per-CU terms linear in the vector width
and the engine count) we extend to logic and DSPs:

    C_logic = C0 + (C1 * N_knl * S_ec + C2 * N_knl) * N_cu
    C_dsp   = C3 + C4 * ceil(N_knl * S_ec / N) * N_cu

- logic scales with the accumulator lanes (C1 per lane: adder, mux,
  FIFO slice) plus per-engine control (C2);
- DSPs are the shared multipliers plus a fixed memory-interface pool (C3).

The constants are stated, fitted once so the paper's final
configuration reproduces Table 2's resource columns on the Stratix-V GXA7
(170K/160K ALMs, 243/240 DSPs, 2460/2435 M20Ks). No compile loop runs:
without the vendor compiler there are no characterization samples to
re-fit them from, so they stand in for the fast-compile stage of
Figure 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..hw.config import AcceleratorConfig
from ..hw.device import FPGADevice

#: Share of the device's ALMs a design may use (the paper's 75% logic
#: constraint, Section 5.2).
LOGIC_BUDGET = 0.75


@dataclass(frozen=True)
class ResourceEstimate:
    """Predicted resource usage of one configuration."""

    alms: int
    dsps: int
    m20ks: int

    def utilization(self, device: FPGADevice) -> "ResourceUtilization":
        return ResourceUtilization(
            logic=self.alms / device.alms,
            dsp=self.dsps / device.dsps,
            memory=self.m20ks / device.m20k_blocks,
        )


@dataclass(frozen=True)
class ResourceUtilization:
    """Fractional utilization of each resource class."""

    logic: float
    dsp: float
    memory: float

    def fits(self) -> bool:
        """Feasibility under :data:`LOGIC_BUDGET` (DSP/memory are hard)."""
        return self.logic <= LOGIC_BUDGET and self.dsp <= 1.0 and self.memory <= 1.0


#: The C0..C7 platform constants, fitted to Table 2 (see the module docstring).
C0 = 20_000.0  # base logic: fetch/store, scheduler, host interface
C1 = 160.0  # ALMs per accumulator lane (adder+mux+FIFO slice)
C2 = 250.0  # ALMs per kernel engine (loop counter, decode)
C3 = 30.0  # DSPs for the memory interface / address generators
C4 = 1.0  # DSPs per shared multiplier
C5 = 300.0  # M20Ks: interface FIFOs and the host-visible cache
C6 = 25.0  # M20Ks per vector lane per CU (FT-Buffer banks)
C7 = 15.0  # M20Ks per kernel engine per CU (WT/Q/partial FIFOs)


def estimate_dsps(config: AcceleratorConfig) -> int:
    return int(round(C3 + C4 * config.multipliers_per_cu * config.n_cu))


def estimate_resources(config: AcceleratorConfig) -> ResourceEstimate:
    """The C0..C7 equations of the module docstring for one configuration."""
    per_cu_logic = C1 * config.n_knl * config.s_ec + C2 * config.n_knl
    per_cu_mem = C6 * config.s_ec + C7 * config.n_knl
    return ResourceEstimate(
        alms=int(round(C0 + per_cu_logic * config.n_cu)),
        dsps=estimate_dsps(config),
        m20ks=int(round(C5 + per_cu_mem * config.n_cu)),
    )


def estimate_resource_arrays(
    n_knl: np.ndarray,
    s_ec: np.ndarray,
    n_cu: np.ndarray,
    n_share: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (alms, dsps, m20ks) over broadcastable parameter arrays.

    Replicates :func:`estimate_resources` operation for operation (same
    association order, same float division before the ceiling, same
    round-half-even) so every element is bit-identical to the scalar
    estimate of the corresponding configuration. This is the resource
    half of the compiled DSE grid (:mod:`repro.dse.compiled`).
    """
    n_knl = np.asarray(n_knl, dtype=np.int64)
    s_ec = np.asarray(s_ec, dtype=np.int64)
    n_cu = np.asarray(n_cu, dtype=np.int64)
    per_cu_logic = (C1 * n_knl) * s_ec + C2 * n_knl
    alms = np.rint(C0 + per_cu_logic * n_cu).astype(np.int64)
    # math.ceil(int / int) in the scalar path is a *float* division; the
    # true_divide below reproduces it exactly.
    mult_per_cu = np.ceil((n_knl * s_ec) / n_share)
    dsps = np.rint(C3 + (C4 * mult_per_cu) * n_cu).astype(np.int64)
    per_cu_mem = C6 * s_ec + C7 * n_knl
    m20ks = np.rint(C5 + per_cu_mem * n_cu).astype(np.int64)
    return alms, dsps, m20ks


def next_power_of_two(value: int) -> int:
    """Smallest power of two >= value (buffer depths are powers of two)."""
    if value < 1:
        return 1
    return 1 << math.ceil(math.log2(value))
