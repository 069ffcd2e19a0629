"""SpConv baseline: zero-skipping sparse convolution (Han-style pruning).

Prior sparse accelerators [1, 2, 8] skip the multiply-accumulate of pruned
(zero) weights but still spend one multiply *and* one accumulate per
surviving weight — unlike ABM-SpConv, which deduplicates the multiplies.
This module provides the functional scheme plus its exact op accounting,
the 'SpConv[7]' column of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.abm import ConvGeometry
from ..core.schemes import (
    ConvScheme,
    SchemeOps,
    SchemeResources,
    register_scheme_model,
)
from ..core.specs import LayerSpec
from ..nn.layers.conv import im2col

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.config import AcceleratorConfig
    from ..hw.workload import LayerWorkload


@dataclass(frozen=True)
class SpConvResult:
    """Output and exact op count of a zero-skipping convolution."""

    output: np.ndarray
    multiply_ops: int
    accumulate_ops: int

    @property
    def total_ops(self) -> int:
        return self.multiply_ops + self.accumulate_ops


def spconv2d(
    feature_codes: np.ndarray,
    weight_codes: np.ndarray,
    geometry: ConvGeometry,
    bias_codes: np.ndarray = None,
) -> SpConvResult:
    """Zero-skipping integer convolution.

    Identical numerics to dense convolution (skipped terms are zero), but
    the op count reflects only surviving weights: one multiply plus one
    accumulate per nonzero weight per output pixel.
    """
    features = np.asarray(feature_codes, dtype=np.int64)
    weights = np.asarray(weight_codes)
    if features.ndim != 3 or weights.ndim != 4:
        raise ValueError("expected CHW features and (M, N, K, K) weights")
    channels = features.shape[0]
    kernels = weights.shape[0]
    group_in = weights.shape[1]
    if channels % group_in:
        raise ValueError("input channels incompatible with weight shape")
    groups = channels // group_in
    if kernels % groups:
        raise ValueError("output channels must divide into groups")
    group_out = kernels // groups
    out_parts = []
    multiply_ops = 0
    for g in range(groups):
        patches = im2col(
            features[g * group_in : (g + 1) * group_in],
            geometry.kernel,
            geometry.stride,
            geometry.padding,
        )
        pixels = patches.shape[0]
        block = np.zeros((group_out, pixels), dtype=np.int64)
        for m in range(group_out):
            kernel = weights[g * group_out + m].reshape(-1).astype(np.int64)
            nz = np.flatnonzero(kernel)
            multiply_ops += int(nz.size) * pixels
            if nz.size:
                # Skip the zeros: gather only surviving columns.
                block[m] = patches[:, nz] @ kernel[nz]
        out_parts.append(block)
    output = np.concatenate(out_parts, axis=0)
    if bias_codes is not None:
        output = output + np.asarray(bias_codes, dtype=np.int64)[:, None]
    pixels_total = output.shape[1]
    rows = int(
        (features.shape[1] + 2 * geometry.padding - geometry.kernel) // geometry.stride
        + 1
    )
    cols = pixels_total // rows
    return SpConvResult(
        output=output.reshape(kernels, rows, cols),
        multiply_ops=multiply_ops,
        accumulate_ops=multiply_ops,
    )


def spconv_ops(spec: LayerSpec, density: float) -> float:
    """Analytic zero-skipping op count (2 per surviving MAC)."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    return 2.0 * spec.macs * density


class SpConvModel:
    """Zero-skipping sparse convolution as a :class:`SchemeModel`; the
    functional :func:`spconv2d` exists for differential checks."""

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
