"""Fully-connected layer.

The paper folds FC computation into the convolution machinery by setting
R = C = 1 and K = 1 in Equation (1): an FC layer is a 1x1 convolution over a
1x1 feature map with N = in_features channels. The quantized pipeline
encodes the (M, N) weights in exactly that (M, N, 1, 1) view, so the
ABM-SpConv encoder, op counter and accelerator treat FC layers uniformly.
"""

from __future__ import annotations

import numpy as np

from ..tensor import FeatureShape
from .base import Layer, require_bchw


class FullyConnected(Layer):
    """Dense layer computing ``y = W x + b`` with W of shape (out, in).

    Weights and bias start at zero; the initializer or the caller sets
    them through :attr:`weights` and ``bias[:]``.
    """

    runs_on_accelerator = True

    def __init__(self, name: str, in_features: int, out_features: int) -> None:
        super().__init__(name)
        self.in_features = in_features
        self.out_features = out_features
        self._weights = np.zeros((out_features, in_features), dtype=np.float64)
        self._bias = np.zeros(out_features, dtype=np.float64)

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
        if input_shape.size != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, "
                f"got shape {input_shape.as_tuple()} ({input_shape.size} values)"
            )
        return FeatureShape(self.out_features, 1, 1)

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        arr = require_bchw(batch, self)
        flat = arr.reshape(arr.shape[0], -1)
        if flat.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} inputs, got {flat.shape[1]}"
            )
        result = flat @ self._weights.T + self._bias
        return result.reshape(arr.shape[0], self.out_features, 1, 1)
