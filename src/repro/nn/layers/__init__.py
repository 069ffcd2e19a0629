"""Forward-only CNN layers."""

from .activation import Dropout, Flatten, ReLU
from .base import Layer
from .conv import Conv2D, im2col
from .fc import FullyConnected
from .lrn import LocalResponseNorm
from .pool import AvgPool2D, MaxPool2D
from .softmax import Softmax

__all__ = [
    "Layer",
    "Conv2D",
    "im2col",
    "FullyConnected",
    "MaxPool2D",
    "AvgPool2D",
    "ReLU",
    "Dropout",
    "Flatten",
    "LocalResponseNorm",
    "Softmax",
]
