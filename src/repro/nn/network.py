"""Sequential network container with shape inference."""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Union

import numpy as np

from .layers.base import Layer
from .layers.conv import Conv2D
from .layers.fc import FullyConnected
from .tensor import FeatureShape

ComputeLayer = Union[Conv2D, FullyConnected]


class Network:
    """An ordered stack of layers applied to a single CHW input.

    The container validates shape compatibility at construction time so a
    mis-specified model fails fast, and exposes the conv/FC sublist that the
    paper's accelerator executes (:meth:`accelerated_layers`).
    """

    def __init__(self, name: str, input_shape: FeatureShape, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        names = [layer.name for layer in layers]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate layer names: {sorted(duplicates)}")
        self.name = name
        self.input_shape = input_shape
        self.layers: List[Layer] = list(layers)
        self._shapes: List[FeatureShape] = []
        shape = input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self._shapes.append(shape)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def layer(self, name: str) -> Layer:
        """Look a layer up by name."""
        for candidate in self.layers:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no layer named {name!r} in network {self.name!r}")

    @property
    def output_shape(self) -> FeatureShape:
        return self._shapes[-1]

    def accelerated_layers(self) -> List[ComputeLayer]:
        """Conv and FC layers, in order — what the FPGA executes."""
        return [layer for layer in self.layers if layer.runs_on_accelerator]  # type: ignore[misc]

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Run inference on one CHW input: the batched walk on a batch of one."""
        arr = np.asarray(features)
        if arr.shape != self.input_shape.as_tuple():
            raise ValueError(
                f"network {self.name!r} expects input shape "
                f"{self.input_shape.as_tuple()}, got {arr.shape}"
            )
        return self.forward_batch(arr[None])[0]

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        """Run a (B, C, H, W) batch through every layer's batched path.

        The batch flows through each layer as one array instead of a
        Python loop over images.
        """
        arr = np.asarray(batch)
        expected = self.input_shape.as_tuple()
        if arr.ndim != 4 or arr.shape[1:] != expected:
            raise ValueError(
                f"network {self.name!r} expects a (batch, {expected[0]}, "
                f"{expected[1]}, {expected[2]}) array, got {arr.shape}"
            )
        for layer in self.layers:
            arr = layer.forward_batch(arr)
        return arr

    def activations(self, features: np.ndarray) -> Dict[str, np.ndarray]:
        """Run one CHW input and capture every layer's output (for calibration)."""
        arr = np.asarray(features)[None]
        captured: Dict[str, np.ndarray] = {}
        for layer in self.layers:
            arr = layer.forward_batch(arr)
            captured[layer.name] = arr[0]
        return captured
