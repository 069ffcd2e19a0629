"""Roofline model of the accelerator design spaces (paper Figure 1).

Figure 1 plots CNN inference throughput (GOP/s, counted on the original
dense op count) against the throughput-to-communication ratio, with three
computational roofs on the Stratix-V GXA7 at 200 MHz:

- SDConv (MAC arrays):     2 * N_mac * Freq            = 204.8 GOP/s
- FDConv / SpConv:         2 * R_mac * N_mac * Freq    =   675 GOP/s (R=3.3)
- ABM-SpConv (this work):  2 * N_acc * Freq            =  1046 GOP/s

where the ABM roof's N_acc is the accumulator population the device's
*logic* can host (~2,600 slices at ~72 ALMs each on the GXA7) — the roof is
bound by ALMs, not DSPs, which is the paper's central design-space
transformation. The bandwidth roof is ``BW * intensity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.schemes import (
    ComputationalRoof,
    ConvScheme,
    abm_roof,
    reduced_mac_roof,
    sdconv_roof,
)
from ..hw.device import FPGADevice


@dataclass(frozen=True)
class DesignPoint:
    """An achieved design plotted under the roofs."""

    label: str
    scheme: ConvScheme
    gops: float
    intensity_gops_per_byte: Optional[float] = None


@dataclass(frozen=True)
class RooflineModel:
    """Roofs and bandwidth limit for one device/frequency pair."""

    device: FPGADevice
    freq_mhz: float
    fdconv_reduction: float = 3.3

    def roofs(self) -> Tuple[ComputationalRoof, ...]:
        """The three computational roofs of Figure 1."""
        return (
            sdconv_roof(self.device.mac_count, self.freq_mhz),
            reduced_mac_roof(
                self.device.mac_count, self.freq_mhz, self.fdconv_reduction
            ),
            abm_roof(self.device.max_accumulators, self.freq_mhz),
        )

    def roof_for(self, scheme: ConvScheme) -> ComputationalRoof:
        for roof in self.roofs():
            if roof.scheme is scheme:
                return roof
        # SpConv shares the FDConv roof (same 2*R*N_mac*Freq form).
        if scheme is ConvScheme.SPCONV:
            return reduced_mac_roof(
                self.device.mac_count,
                self.freq_mhz,
                self.fdconv_reduction,
                scheme=ConvScheme.SPCONV,
            )
        raise KeyError(f"no roof for scheme {scheme}")

    def headroom(self, point: DesignPoint) -> float:
        """Fraction of the scheme's computational roof a design achieves."""
        return point.gops / self.roof_for(point.scheme).gops

    def render(self, points: Tuple[DesignPoint, ...] = ()) -> str:
        """ASCII rendering of the roofs and any design points."""
        lines: List[str] = [
            f"Roofline — {self.device.name} @ {self.freq_mhz:g} MHz "
            f"(BW {self.device.bandwidth_gbs:g} GB/s)"
        ]
        for roof in self.roofs():
            lines.append(
                f"  {roof.scheme.value:<12} roof {roof.gops:8.1f} GOP/s   "
                f"[{roof.formula}]"
            )
        for point in points:
            mark = f"  * {point.label:<20} {point.gops:8.1f} GOP/s "
            mark += f"({self.headroom(point):.0%} of {point.scheme.value} roof)"
            lines.append(mark)
        return "\n".join(lines)
