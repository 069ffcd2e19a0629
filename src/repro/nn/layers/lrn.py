"""Local Response Normalization (AlexNet) — a host-CPU layer in the paper."""

from __future__ import annotations

import numpy as np

from ..tensor import FeatureShape
from .base import Layer, require_bchw


class LocalResponseNorm(Layer):
    """Across-channel LRN as defined by Krizhevsky et al.

    ``out[c] = in[c] / (k + alpha/n * sum_{c' in window} in[c']^2)^beta``
    with a window of ``local_size`` channels centred on ``c``.
    """

    def __init__(
        self,
        name: str,
        local_size: int = 5,
        alpha: float = 1e-4,
        beta: float = 0.75,
        k: float = 1.0,
    ) -> None:
        super().__init__(name)
        if local_size < 1 or local_size % 2 == 0:
            raise ValueError(f"local_size must be odd and positive, got {local_size}")
        self.local_size = local_size
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def output_shape(self, input_shape: FeatureShape) -> FeatureShape:
        return input_shape

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = require_bchw(batch, self).astype(np.float64)
        channels = batch.shape[1]
        squared = batch**2
        half = self.local_size // 2
        # Prefix sums over the channel axis give O(C) windowed sums.
        prefix = np.concatenate(
            [np.zeros((batch.shape[0], 1) + squared.shape[2:]), np.cumsum(squared, axis=1)],
            axis=1,
        )
        lo = np.clip(np.arange(channels) - half, 0, channels)
        hi = np.clip(np.arange(channels) + half + 1, 0, channels)
        window_sums = prefix[:, hi] - prefix[:, lo]
        denom = (self.k + (self.alpha / self.local_size) * window_sums) ** self.beta
        return batch / denom
