"""FPGA device catalog.

The paper evaluates on a Terasic DE5-Net (Intel Stratix-V GXA7: 234,720
ALMs, 256 DSP blocks, 2,560 M20K memories, 12.8 GB/s DDR3) and compares
against accelerators on Arria-10 parts. A :class:`FPGADevice` carries the
resource totals those comparisons need; three modelling constants, the
same for every catalogued part, turn them into the roofline's capacities:

- :data:`MACS_PER_DSP` — each Stratix-V DSP performs two 16/8-bit fixed-point
  MACs per cycle (paper Section 1), which fixes the SDConv roof at
  ``2 * 2 * 256 * 0.2 GHz = 204.8 GOP/s``.
- :data:`ALMS_PER_ACCUMULATOR` — logic cost of one 16-bit accumulator slice
  (adder + input mux + control). This constant sets the *transformed*
  design-space roof of Figure 1: the GXA7's usable logic supports ~2,600
  accumulator slices, i.e. a 1,046 GOP/s accumulator-bound roof.
- :data:`USABLE_LOGIC_FRACTION` — share of the ALMs usable before
  routing/frequency collapse (the exploration's own budget is the
  paper's 75%, :data:`repro.dse.resources.LOGIC_BUDGET`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

MACS_PER_DSP = 2
ALMS_PER_ACCUMULATOR = 72
USABLE_LOGIC_FRACTION = 0.8


@dataclass(frozen=True)
class FPGADevice:
    """Resource inventory of one FPGA."""

    name: str
    alms: int
    dsps: int
    m20k_blocks: int
    bandwidth_gbs: float

    def __post_init__(self) -> None:
        if min(self.alms, self.dsps, self.m20k_blocks) < 1:
            raise ValueError(f"{self.name}: resources must be positive")
        if self.bandwidth_gbs <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")

    @property
    def mac_count(self) -> int:
        """N_mac: fixed-point MACs the DSP blocks supply per cycle."""
        return self.dsps * MACS_PER_DSP

    @property
    def max_accumulators(self) -> int:
        """Logic-bound accumulator capacity (sets the ABM roof of Fig. 1)."""
        return int(USABLE_LOGIC_FRACTION * self.alms) // ALMS_PER_ACCUMULATOR


#: The paper's evaluation device (DE5-Net board).
STRATIX_V_GXA7 = FPGADevice(
    name="Stratix-V GXA7",
    alms=234_720,
    dsps=256,
    m20k_blocks=2_560,
    bandwidth_gbs=12.8,
)

#: Arria-10 GX1150 (baselines [4] and [10] in Table 2).
ARRIA_10_GX1150 = FPGADevice(
    name="Arria-10 GX1150",
    alms=427_200,
    dsps=1_518,
    m20k_blocks=2_713,
    bandwidth_gbs=19.2,
)

#: Arria-10 GT1150 (baseline [12] in Table 2).
ARRIA_10_GT1150 = FPGADevice(
    name="Arria-10 GT1150",
    alms=427_200,
    dsps=1_518,
    m20k_blocks=2_713,
    bandwidth_gbs=19.2,
)

#: Mid-size Stratix-V sibling (GXA3-class inventory, same DDR3 board
#: bandwidth as the DE5-Net). Figures are datasheet approximations, not a
#: calibrated board; a smaller part for the DSE and feasibility checks.
STRATIX_V_GXA3 = FPGADevice(
    name="Stratix-V GXA3",
    alms=128_300,
    dsps=256,
    m20k_blocks=957,
    bandwidth_gbs=12.8,
)

#: Cyclone-V SoC-class small part (SE-A6-like inventory, single-channel
#: DDR3). Too small to hold the whole-model buffers of the evaluated
#: networks: the catalog's case of a device no paper design fits.
CYCLONE_V_SE = FPGADevice(
    name="Cyclone-V SE",
    alms=41_910,
    dsps=112,
    m20k_blocks=557,
    bandwidth_gbs=6.4,
)

_CATALOG: Dict[str, FPGADevice] = {
    device.name.lower(): device
    for device in (
        STRATIX_V_GXA7,
        ARRIA_10_GX1150,
        ARRIA_10_GT1150,
        STRATIX_V_GXA3,
        CYCLONE_V_SE,
    )
}


def available_devices() -> List[str]:
    """Names of all catalogued devices."""
    return sorted(device.name for device in _CATALOG.values())


def get_device(name: str) -> FPGADevice:
    """Look a device up by (case-insensitive) name."""
    key = name.lower()
    if key not in _CATALOG:
        raise KeyError(
            f"unknown device {name!r}; available: {', '.join(available_devices())}"
        )
    return _CATALOG[key]
