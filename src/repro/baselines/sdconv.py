"""SDConv baseline: dense spatial convolution.

The reference the paper normalizes everything to: plain Equation (1), whose
op count (2 per MAC) is the '#OP' every throughput number in Table 2
divides by. The paper compares schemes by operation counts, so this module
is an op-count and cycle model only; the functional Equation (1) is the
float layer :class:`repro.nn.layers.Conv2D`.
"""

from __future__ import annotations

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
