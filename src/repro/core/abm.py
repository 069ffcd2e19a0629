"""ABM-SpConv: accumulate-before-multiply sparse convolution (Equation 2).

Because a q-bit quantized weight can only take ``Q = 2**q`` distinct values,
the inner product of a convolution kernel factors by value::

    sum_i w_i * x_i  ==  sum_p Wp * (sum_{i : w_i == Wp} x_i)

The two-stage flow is: (1) for every distinct nonzero value Wp, *accumulate*
the feature pixels it touches; (2) *multiply* each partial sum by Wp once
and sum the products. Stage 1 is pure addition — cheap ALM logic on an FPGA
— while stage 2 needs only one multiplier per several accumulators, which is
the whole architectural point of the paper.

All arithmetic here is exact integer arithmetic on fixed-point codes, so the
factorization is bit-exact against direct convolution (Equation 1); the
tests anchor the reference to the float layer :class:`repro.nn.layers.Conv2D`
run on the same integer codes.
Rounding to the 8-bit feature format happens once, after the kernel sum, as
in the hardware's Sum/Round stage.

Two implementations are provided: the literal one-image reference loop
(:func:`abm_conv2d_reference`), the single kernel oracle; and the fast
path (:func:`abm_conv2d_batch`), which executes a compile-once layer plan
(:mod:`repro.core.plan`) on a batch as one exact GEMM per channel group
and is bit-exact against the oracle with identical (analytic) operation
counts. One image runs on the fast path as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .encoding import EncodedLayer
from .plan import compile_layer_plan, conv_output_hw


@dataclass(frozen=True)
class ConvGeometry:
    """Spatial parameters of a convolution (K, S, padding, groups)."""

    kernel: int
    stride: int = 1
    padding: int = 0
    groups: int = 1


@dataclass(frozen=True)
class ABMConvResult:
    """Output of an ABM-SpConv execution plus its exact operation counts."""

    output: np.ndarray
    accumulate_ops: int
    multiply_ops: int


def _check_feature_codes(features: np.ndarray) -> np.ndarray:
    arr = np.asarray(features)
    if arr.ndim != 3:
        raise ValueError(f"feature codes must be CHW, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError("ABM-SpConv operates on integer feature codes")
    return arr.astype(np.int64)


def _check_channels(
    channels: int, encoded: EncodedLayer, geometry: ConvGeometry
) -> None:
    expected = encoded.kernel_shape[0] * geometry.groups
    if channels != expected:
        raise ValueError(
            f"layer {encoded.name!r} expects {expected} input channels "
            f"({encoded.kernel_shape[0]} per group x {geometry.groups} groups), "
            f"got {channels}"
        )


def abm_conv2d_reference(
    feature_codes: np.ndarray,
    encoded: EncodedLayer,
    geometry: ConvGeometry,
    bias_codes: Optional[np.ndarray] = None,
) -> ABMConvResult:
    """Literal two-stage ABM-SpConv (slow; the test oracle).

    Walks every output pixel of every kernel, accumulates feature pixels per
    distinct weight value, then multiplies each partial sum once — exactly
    the loop structure of paper Section 3 steps (1)-(2).
    """
    features = _check_feature_codes(feature_codes)
    channels, rows, cols = features.shape
    _check_channels(channels, encoded, geometry)
    out_rows, out_cols = conv_output_hw(rows, cols, geometry)
    kernels = encoded.out_channels
    if kernels % geometry.groups:
        raise ValueError("output channels must divide into groups")
    padded = np.pad(
        features,
        ((0, 0), (geometry.padding,) * 2, (geometry.padding,) * 2),
        mode="constant",
    )
    group_in = channels // geometry.groups
    group_out = kernels // geometry.groups
    output = np.zeros((kernels, out_rows, out_cols), dtype=np.int64)
    acc_ops = 0
    mult_ops = 0
    k = geometry.kernel
    for m, kernel in enumerate(encoded.kernels):
        base_channel = (m // group_out) * group_in
        for r in range(out_rows):
            for c in range(out_cols):
                r0 = r * geometry.stride
                c0 = c * geometry.stride
                window = padded[
                    base_channel : base_channel + group_in, r0 : r0 + k, c0 : c0 + k
                ].reshape(-1)
                total = 0
                for value, block in kernel.value_groups():
                    # Stage 1: accumulate all pixels sharing this value.
                    partial = int(window[block].sum())
                    acc_ops += block.size
                    # Stage 2: one multiply + final accumulation.
                    total += value * partial
                    mult_ops += 1
                if bias_codes is not None:
                    total += int(bias_codes[m])
                output[m, r, c] = total
    return ABMConvResult(output=output, accumulate_ops=acc_ops, multiply_ops=mult_ops)


def abm_conv2d_batch(
    feature_codes: np.ndarray,
    encoded: EncodedLayer,
    geometry: ConvGeometry,
    bias_codes: Optional[np.ndarray] = None,
) -> ABMConvResult:
    """Batched ABM-SpConv: a (B, C, H, W) batch stacked into the pixel axis.

    All B images run through one compiled-plan pass — the GEMM sees
    B x out_pixels columns — instead of looping images in Python.  The
    output is (B, M, R', C') and the op counts are batch totals.
    Bit-exact against :func:`abm_conv2d_reference` on each image, with
    identical operation counts; raises
    :class:`repro.core.plan.ExactnessError` when the features are too
    wide for any exact host datapath.
    """
    batch = np.asarray(feature_codes)
    if batch.ndim != 4:
        raise ValueError(f"batched feature codes must be BCHW, got {batch.shape}")
    if not np.issubdtype(batch.dtype, np.integer):
        raise TypeError("ABM-SpConv operates on integer feature codes")
    _check_channels(batch.shape[1], encoded, geometry)
    batch = batch.astype(np.int64)
    plan = compile_layer_plan(encoded, geometry)
    output, acc_ops, mult_ops = plan.execute_batch(batch, bias_codes=bias_codes)
    return ABMConvResult(output=output, accumulate_ops=acc_ops, multiply_ops=mult_ops)
