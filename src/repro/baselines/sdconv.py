"""SDConv baseline: dense spatial convolution.

The reference the paper normalizes everything to. Functionally this is
plain Equation (1); the integer version is the oracle ABM-SpConv must match
bit-for-bit, and the op count (2 per MAC) is the '#OP' every throughput
number in Table 2 divides by. The MAC-array timing model lives in
:mod:`repro.hw.mac_array`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.abm import ConvGeometry, direct_conv2d_codes
from ..core.schemes import (
    ConvScheme,
    SchemeOps,
    SchemeResources,
    register_scheme_model,
)
from ..core.specs import LayerSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.config import AcceleratorConfig
    from ..hw.workload import LayerWorkload


@dataclass(frozen=True)
class SDConvResult:
    """Output and op count of a dense spatial convolution."""

    output: np.ndarray
    multiply_ops: int
    accumulate_ops: int

    @property
    def total_ops(self) -> int:
        return self.multiply_ops + self.accumulate_ops


def sdconv2d(
    feature_codes: np.ndarray,
    weight_codes: np.ndarray,
    geometry: ConvGeometry,
    bias_codes: np.ndarray = None,
) -> SDConvResult:
    """Dense integer convolution with exact op accounting.

    Every weight — zero or not — costs one multiply and one accumulate:
    dense hardware cannot skip, which is exactly the gap the sparse
    schemes exploit.
    """
    output = direct_conv2d_codes(feature_codes, weight_codes, geometry, bias_codes)
    weights = np.asarray(weight_codes)
    pixels = int(output.shape[1] * output.shape[2])
    total_macs = int(weights.size) * pixels
    return SDConvResult(
        output=output, multiply_ops=total_macs, accumulate_ops=total_macs
    )


def sdconv_ops(spec: LayerSpec) -> int:
    """Analytic dense op count (2 per MAC) for a layer spec."""
    return spec.dense_ops


class SDConvModel:
    """Dense MAC-array execution as a :class:`SchemeModel`: the
    taxonomy's normalization point in prediction tables."""

    name = "sdconv"
    taxonomy = ConvScheme.SDCONV

    def supports(self, spec: LayerSpec) -> bool:
        return True

    def layer_ops(self, workload: "LayerWorkload") -> SchemeOps:
        macs = float(workload.spec.macs)
        return SchemeOps(multiplies=macs, accumulates=macs)

    def layer_cycles(
        self, workload: "LayerWorkload", config: "AcceleratorConfig"
    ) -> float:
        """One MAC per shared multiplier per cycle — the 2*N_mac*F roof."""
        return workload.spec.macs / float(config.total_multipliers)

    def resource_overhead(self, config: "AcceleratorConfig") -> SchemeResources:
        return SchemeResources()


register_scheme_model(SDConvModel())
