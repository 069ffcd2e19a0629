"""Layer interface for the inference-only CNN substrate.

Layers are forward-only (the paper accelerates inference; pruning and
quantization operate on already-trained weights, which we synthesize). Each
layer implements one body, :meth:`Layer.forward_batch` on a BCHW batch;
:meth:`Layer.forward` on one CHW map is that body run on a batch of one.
Every layer infers its output shape, reports its dense operation count, and
declares whether the paper's accelerator executes it on the FPGA
(convolution and fully-connected layers) or leaves it to the host CPU
(pooling, LRN, softmax and friends — Section 6.1).
"""

from __future__ import annotations

import abc
from typing import ClassVar, Optional

import numpy as np

from ..tensor import FeatureShape


class Layer(abc.ABC):
    """Base class of all network layers."""

    #: True if the FPGA executes this layer (CONV and FC only).
    runs_on_accelerator: ClassVar[bool] = False

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("layer name must be non-empty")
        self.name = name

    @abc.abstractmethod
    def output_shape(self, input_shape: FeatureShape) -> FeatureShape:
        """Shape of the output feature map for a given input shape."""

    @abc.abstractmethod
    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        """Run the layer on a (B, C, H, W) batch."""

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Run the layer on one CHW feature map: a batch of one."""
        return self.forward_batch(require_chw(features, self)[None])[0]

    @property
    def weights(self) -> Optional[np.ndarray]:
        """Weight tensor, or None for stateless layers."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


def require_chw(features: np.ndarray, layer: Layer) -> np.ndarray:
    """Validate that a feature map is a 3-D CHW array."""
    arr = np.asarray(features)
    if arr.ndim != 3:
        raise ValueError(
            f"layer {layer.name!r} expects a CHW feature map, got shape {arr.shape}"
        )
    return arr


def require_bchw(batch: np.ndarray, layer: Layer) -> np.ndarray:
    """Validate that a feature-map batch is a 4-D BCHW array."""
    arr = np.asarray(batch)
    if arr.ndim != 4:
        raise ValueError(
            f"layer {layer.name!r} expects a BCHW batch, got shape {arr.shape}"
        )
    return arr
