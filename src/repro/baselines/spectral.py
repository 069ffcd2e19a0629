"""Spectral (full-map FFT) convolution as a scheme model.

Where :mod:`repro.baselines.fdconv` keeps the single-image functional
FFT baseline and the OaA reduction *model* of Table 2's FDConv designs,
this module models SPEC2-style full-map FFT convolution as one more
per-layer scheme: analytic op counts (forward rfft2 of every input
channel, the frequency-domain channel reduction, inverse rfft2 of every
output channel), the cycle prediction on the shared multipliers, and the
fabric of a shared FFT engine. It does not execute the scheme.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

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


def spectral_supported(spec: LayerSpec) -> bool:
    """Spectral convolution pays off only when there is a kernel to fold:
    1x1/FC layers are pure channel mixes and stay spatial."""
    return (not spec.is_fc) and spec.kernel > 1


def _fft_component_ops(points: float) -> Tuple[float, float]:
    """(multiplies, accumulates) of one real 2-D FFT over ``points`` samples.

    Radix-2 accounting: ``N log2 N`` complex butterflies at 4 mul + 6 add,
    halved for the real-input/real-output transforms actually used.
    """
    if points <= 1:
        return 0.0, 0.0
    stages = points * math.log2(points)
    return 2.0 * stages, 3.0 * stages


def spectral_ops(spec: LayerSpec) -> SchemeOps:
    """Analytic per-image op counts of the layer under full-map FFT.

    Three stages: forward rfft2 of every input channel, the frequency-domain
    complex multiply-accumulate over channel groups, and inverse rfft2 of
    every output channel. Kernel FFTs amortize across the batch and are
    excluded, symmetrical to Winograd's kernel transform.
    """
    if not spectral_supported(spec):
        raise ValueError(f"{spec.name}: spectral needs a conv layer with K > 1")
    rows = spec.in_rows + 2 * spec.padding
    cols = spec.in_cols + 2 * spec.padding
    points = float(rows * cols)
    bins = rows * (cols // 2 + 1)
    fft_mul, fft_acc = _fft_component_ops(points)
    group_in = spec.in_channels // spec.groups
    # Complex mult = 4 mul + 2 add per frequency bin, then the channel
    # reduction adds (C_g - 1) complex adds per output channel and bin.
    elem_mul = 4.0 * bins * spec.out_channels * group_in
    elem_acc = 2.0 * bins * spec.out_channels * group_in + 2.0 * bins * (
        spec.out_channels * max(0, group_in - 1)
    )
    multiplies = fft_mul * (spec.in_channels + spec.out_channels) + elem_mul
    accumulates = fft_acc * (spec.in_channels + spec.out_channels) + elem_acc
    return SchemeOps(multiplies=multiplies, accumulates=accumulates)


# ---------------------------------------------------------------------------
# Scheme model.
# ---------------------------------------------------------------------------

#: Modeled fabric of one shared FFT engine (butterfly pipeline + twiddle
#: ROMs + line buffers), SPEC2-style: a flat block, not per-CU.
_FFT_ENGINE = SchemeResources(alms=6000, dsps=32, m20ks=24)


class SpectralModel:
    """Full-map FFT convolution as a :class:`SchemeModel`."""

    name = "spectral"
    taxonomy = ConvScheme.FDCONV

    def supports(self, spec: LayerSpec) -> bool:
        return spectral_supported(spec)

    def layer_ops(self, workload: "LayerWorkload") -> SchemeOps:
        return spectral_ops(workload.spec)

    def layer_cycles(
        self, workload: "LayerWorkload", config: "AcceleratorConfig"
    ) -> float:
        """Surviving ops retire two per shared multiplier per cycle (one
        MAC), i.e. effective rate ``R_spec * N_mult`` with the reduction
        implied by the analytic op counts."""
        spec = workload.spec
        if not self.supports(spec):
            return math.inf
        return spectral_ops(spec).total_ops / (2.0 * config.total_multipliers)

    def resource_overhead(self, config: "AcceleratorConfig") -> SchemeResources:
        return _FFT_ENGINE


register_scheme_model(SpectralModel())
