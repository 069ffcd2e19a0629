"""Softmax classifier head (host-CPU layer in the paper's system)."""

from __future__ import annotations

import numpy as np

from ..tensor import FeatureShape
from .base import Layer, require_bchw


class Softmax(Layer):
    """Numerically-stable softmax over the channel axis."""

    def output_shape(self, input_shape: FeatureShape) -> FeatureShape:
        return input_shape

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = require_bchw(batch, self).astype(np.float64)
        shifted = batch - batch.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)
