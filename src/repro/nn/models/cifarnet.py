"""CifarNet — a small CIFAR-10 CNN runnable end-to-end at full size.

Modeled on Caffe's ``cifar10_quick``: three 5x5 convolutions with pooling
(max then average, as in the original), a small FC head. At 24.7 MFLOPs it
executes the complete prune/quantize/ABM pipeline in well under a second,
which makes it the workhorse of the functional examples and tests.
"""

from __future__ import annotations

from .arch import (
    Architecture,
    ConvDef,
    FCDef,
    FlattenDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)


def cifarnet_architecture() -> Architecture:
    """The cifar10_quick-style architecture description."""
    return Architecture(
        name="cifarnet",
        input_channels=3,
        input_rows=32,
        input_cols=32,
        defs=[
            ConvDef("conv1", 32, kernel=5, padding=2),
            PoolDef("pool1", kernel=3, stride=2),
            ReLUDef("relu1"),
            ConvDef("conv2", 32, kernel=5, padding=2),
            ReLUDef("relu2"),
            PoolDef("pool2", kernel=3, stride=2, kind="avg"),
            ConvDef("conv3", 64, kernel=5, padding=2),
            ReLUDef("relu3"),
            PoolDef("pool3", kernel=3, stride=2, kind="avg"),
            FlattenDef("flatten"),
            FCDef("fc4", 64),
            FCDef("fc5", 10, scale_output=False),
            SoftmaxDef("prob"),
        ],
    )
