"""FDConv baseline: frequency-domain convolution (Zeng et al. [3]).

The strongest prior design the paper compares against performs convolution
in the frequency domain with overlap-and-add (OaA) tiling, cutting MAC
operations ~3.3x on 3x3 layers. The paper compares against it by operation
counts and published numbers only, so this module is a model, not an
executable convolution. :class:`OaAModel` is the analytic MAC-reduction
model: the ideal OaA reduction for a KxK kernel on t x t output tiles is
``K^2 t^2 / (t + K - 1)^2`` real products avoided per output; transform
overheads (the FFTs themselves and the complex arithmetic) erode it by a
platform factor, calibrated so K=3, t=4 reproduces [3]'s published 3.3x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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

#: Default OaA output-tile edge used by [3] for 3x3 kernels.
DEFAULT_TILE = 4
#: Transform-overhead factor calibrated to [3]'s 3.3x on K=3, t=4.
DEFAULT_OVERHEAD = 1.212


@dataclass(frozen=True)
class OaAModel:
    """Analytic MAC-reduction model of overlap-and-add FDConv."""

    tile: int = DEFAULT_TILE
    overhead: float = DEFAULT_OVERHEAD

    def reduction(self, kernel: int, stride: int = 1) -> float:
        """MAC reduction rate for a KxK/stride-S convolution layer.

        Strided convolutions compute a dense result and discard samples, so
        the useful reduction divides by S^2; layers where that leaves no
        gain (and 1x1/FC layers) fall back to 1.0 — spatial execution.
        """
        if kernel <= 1:
            return 1.0
        ideal = (kernel**2 * self.tile**2) / ((self.tile + kernel - 1) ** 2)
        effective = ideal / self.overhead / (stride**2)
        return max(1.0, effective)

    def layer_ops(self, spec: LayerSpec) -> float:
        """Op count of the layer under FDConv (2 per surviving MAC)."""
        if spec.is_fc:
            return float(spec.dense_ops)
        return spec.dense_ops / self.reduction(spec.kernel, spec.stride)


class FDConvModel:
    """OaA frequency-domain convolution as a :class:`SchemeModel`.

    Keeps [3]'s calibrated OaA reduction in prediction tables.
    """

    name = "fdconv"
    taxonomy = ConvScheme.FDCONV

    def __init__(self, oaa: OaAModel = None) -> None:
        self.oaa = oaa if oaa is not None else OaAModel()

    def supports(self, spec: LayerSpec) -> bool:
        return (not spec.is_fc) and spec.kernel > 1 and spec.groups == 1

    def layer_ops(self, workload: "LayerWorkload") -> SchemeOps:
        half = self.oaa.layer_ops(workload.spec) / 2.0
        return SchemeOps(multiplies=half, accumulates=half)

    def layer_cycles(
        self, workload: "LayerWorkload", config: "AcceleratorConfig"
    ) -> float:
        """Effective MAC rate ``R_mac * N_mult`` — the 2*R*N_mac*F roof."""
        spec = workload.spec
        rate = self.oaa.reduction(spec.kernel, spec.stride)
        return spec.macs / (rate * config.total_multipliers)

    def resource_overhead(self, config: "AcceleratorConfig") -> SchemeResources:
        return SchemeResources(alms=4000, dsps=24, m20ks=16)


register_scheme_model(FDConvModel())
