"""Batch normalization (inference mode) and conv/FC folding.

The paper's benchmarks predate BN, but any modern CNN a user deploys
through this library has it. At inference BN is an affine per-channel
transform, and the standard deployment step — which the quantized
pipeline relies on — is to *fold* it into the preceding conv/FC weights:

    y = gamma * (w*x + b - mean) / sqrt(var + eps) + beta
      = (gamma / sigma) * w * x  +  (gamma / sigma) * (b - mean) + beta

so the folded network has no BN layers at all and quantizes like the
paper's models. :func:`fold_batchnorm` performs the transform on a
sequential network and is verified to be numerically exact.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..tensor import FeatureShape
from .base import Layer, require_bchw
from .conv import Conv2D
from .fc import FullyConnected


class BatchNorm(Layer):
    """Per-channel inference-time batch normalization."""

    def __init__(
        self,
        name: str,
        channels: int,
        gamma: np.ndarray = None,
        beta: np.ndarray = None,
        running_mean: np.ndarray = None,
        running_var: np.ndarray = None,
        eps: float = 1e-5,
    ) -> None:
        super().__init__(name)
        if channels < 1:
            raise ValueError("channels must be positive")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.channels = channels
        self.eps = eps
        self.gamma = self._param(gamma, channels, 1.0)
        self.beta = self._param(beta, channels, 0.0)
        self.running_mean = self._param(running_mean, channels, 0.0)
        self.running_var = self._param(running_var, channels, 1.0)
        if np.any(self.running_var < 0):
            raise ValueError("variances cannot be negative")

    @staticmethod
    def _param(value, channels: int, default: float) -> np.ndarray:
        if value is None:
            return np.full(channels, default, dtype=np.float64)
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != (channels,):
            raise ValueError(f"parameter must have shape ({channels},)")
        return arr.copy()

    def output_shape(self, input_shape: FeatureShape) -> FeatureShape:
        if input_shape.channels != self.channels:
            raise ValueError(
                f"{self.name}: expected {self.channels} channels, "
                f"got {input_shape.channels}"
            )
        return input_shape

    def scale_and_shift(self) -> tuple:
        """The equivalent per-channel affine (scale, shift)."""
        sigma = np.sqrt(self.running_var + self.eps)
        scale = self.gamma / sigma
        shift = self.beta - scale * self.running_mean
        return scale, shift

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = require_bchw(batch, self)
        scale, shift = self.scale_and_shift()
        return batch * scale[:, None, None] + shift[:, None, None]


def fold_batchnorm(layers: List[Layer]) -> List[Layer]:
    """Fold every BN that directly follows a conv/FC layer into it.

    Returns a new layer list; the folded conv/FC layers are fresh objects
    with adjusted weights/bias. A BN with no foldable predecessor is kept
    as-is (it still executes correctly, just unfolded).
    """
    folded: List[Layer] = []
    for layer in layers:
        if isinstance(layer, BatchNorm) and folded and isinstance(
            folded[-1], (Conv2D, FullyConnected)
        ):
            previous = folded.pop()
            scale, shift = layer.scale_and_shift()
            if isinstance(previous, Conv2D):
                if previous.out_channels != layer.channels:
                    raise ValueError(
                        f"{layer.name}: channel mismatch with {previous.name}"
                    )
                replacement = Conv2D(
                    previous.name,
                    previous.in_channels,
                    previous.out_channels,
                    previous.kernel,
                    stride=previous.stride,
                    padding=previous.padding,
                    groups=previous.groups,
                    weights=previous.weights * scale[:, None, None, None],
                    bias=previous.bias * scale + shift,
                )
            else:
                if previous.out_features != layer.channels:
                    raise ValueError(
                        f"{layer.name}: feature mismatch with {previous.name}"
                    )
                replacement = FullyConnected(
                    previous.name,
                    previous.in_features,
                    previous.out_features,
                    weights=previous.weights * scale[:, None],
                    bias=previous.bias * scale + shift,
                )
            folded.append(replacement)
        else:
            folded.append(layer)
    return folded
