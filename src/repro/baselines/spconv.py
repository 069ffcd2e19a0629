"""SpConv baseline: zero-skipping sparse convolution (Han-style pruning).

Prior sparse accelerators [1, 2, 8] skip the multiply-accumulate of pruned
(zero) weights but still spend one multiply *and* one accumulate per
surviving weight — unlike ABM-SpConv, which deduplicates the multiplies.
This module is its op-count and cycle model, the 'SpConv[7]' column of
Table 1.
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


def spconv_ops(spec: LayerSpec, density: float) -> float:
    """Analytic zero-skipping op count (2 per surviving MAC)."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    return 2.0 * spec.macs * density


class SpConvModel:
    """Zero-skipping sparse convolution as a :class:`SchemeModel`."""

    name = "spconv"
    taxonomy = ConvScheme.SPCONV

    def supports(self, spec: LayerSpec) -> bool:
        return True

    def layer_ops(self, workload: "LayerWorkload") -> SchemeOps:
        surviving = float(workload.spec.macs) * workload.density
        return SchemeOps(multiplies=surviving, accumulates=surviving)

    def layer_cycles(
        self, workload: "LayerWorkload", config: "AcceleratorConfig"
    ) -> float:
        """Surviving MACs retire one per shared multiplier per cycle."""
        return (
            workload.spec.macs
            * workload.density
            / float(config.total_multipliers)
        )

    def resource_overhead(self, config: "AcceleratorConfig") -> SchemeResources:
        return SchemeResources()


register_scheme_model(SpConvModel())
