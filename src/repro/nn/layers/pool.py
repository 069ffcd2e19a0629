"""Pooling layers (executed by the host CPU in the paper's system).

AlexNet uses overlapping 3x3/stride-2 max pooling whose windows may run past
the feature-map edge; we follow Caffe's ceil-mode semantics (pad the tail
with -inf for max pooling) so the canonical AlexNet/VGG16 shapes come out
right (55 -> 27 -> 13 -> 6 for AlexNet).
"""

from __future__ import annotations

import numpy as np

from ..tensor import FeatureShape, pool_output_extent
from .base import Layer, require_bchw


class _Pool2D(Layer):
    """Shared machinery for max/average pooling."""

    def __init__(self, name: str, kernel: int, stride: int) -> None:
        super().__init__(name)
        if kernel < 1 or stride < 1:
            raise ValueError("kernel and stride must be positive")
        self.kernel = kernel
        self.stride = stride

    def output_shape(self, input_shape: FeatureShape) -> FeatureShape:
        return FeatureShape(
            input_shape.channels,
            pool_output_extent(input_shape.rows, self.kernel, self.stride),
            pool_output_extent(input_shape.cols, self.kernel, self.stride),
        )

    def _windows(self, features: np.ndarray, fill: float) -> np.ndarray:
        """All pooling windows as an array (C, R', C', K, K)."""
        channels, rows, cols = features.shape
        out_rows = pool_output_extent(rows, self.kernel, self.stride)
        out_cols = pool_output_extent(cols, self.kernel, self.stride)
        # Tail padding for ceil-mode overhang; with stride > kernel the
        # last window may instead end short of the edge (no padding).
        pad_rows = max(0, (out_rows - 1) * self.stride + self.kernel - rows)
        pad_cols = max(0, (out_cols - 1) * self.stride + self.kernel - cols)
        if pad_rows or pad_cols:
            features = np.pad(
                features,
                ((0, 0), (0, pad_rows), (0, pad_cols)),
                mode="constant",
                constant_values=fill,
            )
        windows = np.lib.stride_tricks.sliding_window_view(
            features, (self.kernel, self.kernel), axis=(1, 2)
        )[:, :: self.stride, :: self.stride]
        return windows[:, :out_rows, :out_cols]


class MaxPool2D(_Pool2D):
    """Max pooling over KxK windows."""

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        # The window machinery only touches the trailing two axes, so the
        # batch folds into the channel axis and unfolds after the reduce.
        batch = require_bchw(batch, self)
        b, c, h, w = batch.shape
        windows = self._windows(
            batch.reshape(b * c, h, w).astype(np.float64), fill=-np.inf
        )
        pooled = windows.max(axis=(3, 4))
        return pooled.reshape(b, c, pooled.shape[1], pooled.shape[2])


class AvgPool2D(_Pool2D):
    """Average pooling over KxK windows (tail windows average real pixels)."""

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = require_bchw(batch, self)
        b, c, h, w = batch.shape
        # Valid-pixel counts depend only on geometry: one (c, h, w) pass.
        valid = self._windows(np.ones((c, h, w), dtype=np.float64), fill=0.0)
        counts = valid.sum(axis=(3, 4))
        windows = self._windows(batch.reshape(b * c, h, w).astype(np.float64), fill=0.0)
        sums = windows.sum(axis=(3, 4))
        return sums.reshape(b, c, sums.shape[1], sums.shape[2]) / counts
