"""2-D convolution layer (Equation 1 of the paper) with an im2col forward.

Supports stride, symmetric zero padding and channel groups (AlexNet's
conv2/4/5 are 2-group convolutions). The weight layout is (M, N/g, K, K)
with M output channels, matching the paper's W_{m,n,k,k'} indexing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import FeatureShape, conv_output_extent
from .base import Layer, require_bchw


def im2col(features: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Unfold a CHW map, or a BCHW batch, into a (pixels, C*K*K) patch matrix.

    Rows are ordered row-major over output positions, image after image for
    a batch; columns are ordered (channel, kernel_row, kernel_col) — exactly
    the (n, k, k') index order the paper's weight encoding uses.
    """
    channels = features.shape[-3]
    if padding:
        pad = ((0, 0),) * (features.ndim - 2) + ((padding, padding),) * 2
        features = np.pad(features, pad, mode="constant")
    # Gather with stride tricks: windows[..., c, r', c', k, k'].
    windows = np.lib.stride_tricks.sliding_window_view(
        features, (kernel, kernel), axis=(-2, -1)
    )[..., ::stride, ::stride, :, :]
    stacked = np.moveaxis(windows, -5, -3)
    return np.ascontiguousarray(stacked).reshape(-1, channels * kernel * kernel)


class Conv2D(Layer):
    """Spatial convolution layer.

    Parameters
    ----------
    name:
        Layer name (e.g. ``"conv4_2"``) — also the key used by the pruning
        schedule and the quantizer.
    in_channels / out_channels:
        N and M in the paper's notation.
    kernel:
        K (square kernels only, as in AlexNet/VGG16).
    stride / padding:
        S and symmetric zero padding.
    groups:
        Channel groups; weights then have shape (M, N/groups, K, K).
    """

    runs_on_accelerator = True

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        weights: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(name)
        if in_channels % groups or out_channels % groups:
            raise ValueError("channels must divide evenly into groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.groups = groups
        expected = (out_channels, in_channels // groups, kernel, kernel)
        if weights is None:
            weights = np.zeros(expected, dtype=np.float64)
        weights = np.asarray(weights)
        if weights.shape != expected:
            raise ValueError(f"weights must have shape {expected}, got {weights.shape}")
        self._weights = weights
        if bias is None:
            bias = np.zeros(out_channels, dtype=np.float64)
        bias = np.asarray(bias)
        if bias.shape != (out_channels,):
            raise ValueError(f"bias must have shape ({out_channels},)")
        self._bias = bias

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @weights.setter
    def weights(self, value: np.ndarray) -> None:
        value = np.asarray(value)
        if value.shape != self._weights.shape:
            raise ValueError(
                f"weights must keep shape {self._weights.shape}, got {value.shape}"
            )
        self._weights = value

    @property
    def bias(self) -> np.ndarray:
        return self._bias

    def output_shape(self, input_shape: FeatureShape) -> FeatureShape:
        if input_shape.channels != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, "
                f"got {input_shape.channels}"
            )
        return FeatureShape(
            self.out_channels,
            conv_output_extent(input_shape.rows, self.kernel, self.stride, self.padding),
            conv_output_extent(input_shape.cols, self.kernel, self.stride, self.padding),
        )

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        """Batched im2col forward: one matmul per group over B*P patch rows."""
        batch = require_bchw(batch, self)
        images = batch.shape[0]
        out_shape = self.output_shape(FeatureShape(*batch.shape[1:]))
        pixels = out_shape.rows * out_shape.cols
        group_in = self.in_channels // self.groups
        group_out = self.out_channels // self.groups
        output = np.empty(
            (images,) + out_shape.as_tuple(),
            dtype=np.result_type(batch, self._weights),
        )
        for g in range(self.groups):
            patches = im2col(
                batch[:, g * group_in : (g + 1) * group_in],
                self.kernel,
                self.stride,
                self.padding,
            )
            kernels = self._weights[g * group_out : (g + 1) * group_out].reshape(
                group_out, -1
            )
            result = patches @ kernels.T + self._bias[g * group_out : (g + 1) * group_out]
            output[:, g * group_out : (g + 1) * group_out] = (
                result.reshape(images, pixels, group_out)
                .transpose(0, 2, 1)
                .reshape(images, group_out, out_shape.rows, out_shape.cols)
            )
        return output
