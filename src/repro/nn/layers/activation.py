"""Elementwise layers: ReLU, dropout (inference no-op), flatten."""

from __future__ import annotations

import numpy as np

from ..tensor import FeatureShape
from .base import Layer, require_bchw


class ReLU(Layer):
    """Rectified linear unit, applied elementwise."""

    def output_shape(self, input_shape: FeatureShape) -> FeatureShape:
        return input_shape

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        return np.maximum(require_bchw(batch, self), 0)


class Dropout(Layer):
    """Dropout layer — identity at inference time (kept for model fidelity)."""

    def __init__(self, name: str, rate: float = 0.5) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def output_shape(self, input_shape: FeatureShape) -> FeatureShape:
        return input_shape

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        return require_bchw(batch, self)


class Flatten(Layer):
    """Reshape a CHW map to (C*H*W, 1, 1) ahead of fully-connected layers."""

    def output_shape(self, input_shape: FeatureShape) -> FeatureShape:
        return FeatureShape(input_shape.size, 1, 1)

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = require_bchw(batch, self)
        return batch.reshape(batch.shape[0], -1, 1, 1)
