"""Inference-only numpy CNN substrate (layers, networks, model zoo)."""

from .initializers import initialize_layer, initialize_network
from .layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    fold_batchnorm,
    Dropout,
    Flatten,
    FullyConnected,
    Layer,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
    im2col,
)
from .network import LayerSummary, Network
from .tensor import FeatureShape, conv_output_extent, pool_output_extent

__all__ = [
    "Layer",
    "BatchNorm",
    "fold_batchnorm",
    "Conv2D",
    "FullyConnected",
    "MaxPool2D",
    "AvgPool2D",
    "ReLU",
    "Dropout",
    "Flatten",
    "LocalResponseNorm",
    "Softmax",
    "im2col",
    "Network",
    "LayerSummary",
    "FeatureShape",
    "conv_output_extent",
    "pool_output_extent",
    "initialize_network",
    "initialize_layer",
]
