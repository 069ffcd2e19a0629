"""Convolution-scheme taxonomy and computational roofs.

The paper classifies FPGA CNN accelerators by how they implement
convolution, and assigns each class a computational roof (Figure 1):

- SDConv (spatial, MAC arrays):      ``2 * N_mac * Freq``
- FDConv / SpConv (reduced MACs):    ``2 * R_mac * N_mac * Freq``
- ABM-SpConv (this paper):           ``2 * N_acc * Freq``

where ``N_mac`` is the MAC count the DSP blocks provide, ``R_mac`` the MAC
reduction rate, and ``N_acc`` the (much larger) number of logic-built
accumulators. On a Stratix-V GXA7 at 200 MHz those roofs are 204.8, 675 and
1046 GOP/s respectively — the three horizontal lines of Figure 1.

Per-layer op counts of each scheme live in :mod:`repro.core.opcount`
(Table 1); the host executes every conv/FC layer with ABM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ConvScheme(enum.Enum):
    """The four convolution implementation classes of the paper."""

    SDCONV = "sdconv"
    FDCONV = "fdconv"
    SPCONV = "spconv"
    ABM_SPCONV = "abm-spconv"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ComputationalRoof:
    """A throughput roof in GOP/s with the formula that produced it."""

    scheme: ConvScheme
    gops: float
    formula: str


def sdconv_roof(n_mac: int, freq_mhz: float) -> ComputationalRoof:
    """MAC-array roof: every DSP performs one MAC (2 ops) per cycle."""
    gops = 2.0 * n_mac * freq_mhz / 1e3
    return ComputationalRoof(ConvScheme.SDCONV, gops, "2 * N_mac * Freq")


def reduced_mac_roof(
    n_mac: int, freq_mhz: float, r_mac: float, scheme: ConvScheme = ConvScheme.FDCONV
) -> ComputationalRoof:
    """FDConv/SpConv roof: MAC reduction raises the effective throughput."""
    if r_mac < 1.0:
        raise ValueError(f"MAC reduction rate must be >= 1, got {r_mac}")
    gops = 2.0 * r_mac * n_mac * freq_mhz / 1e3
    return ComputationalRoof(scheme, gops, "2 * R_mac * N_mac * Freq")


def abm_roof(n_acc: int, freq_mhz: float) -> ComputationalRoof:
    """ABM-SpConv roof: bound by accumulators, not multipliers."""
    gops = 2.0 * n_acc * freq_mhz / 1e3
    return ComputationalRoof(ConvScheme.ABM_SPCONV, gops, "2 * N_acc * Freq")

