"""LeNet-5 — the smallest zoo member, for MNIST-shaped inputs.

Exercises configurations the big models never hit: single input channel,
no padding, average pooling after every convolution and tiny FC layers —
useful boundary coverage for the encoder, tiling and pipeline.
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


def lenet_architecture() -> Architecture:
    """The LeNet-5 architecture description (Caffe variant)."""
    return Architecture(
        name="lenet",
        input_channels=1,
        input_rows=28,
        input_cols=28,
        defs=[
            ConvDef("conv1", 20, kernel=5),
            PoolDef("pool1", kernel=2, stride=2),
            ConvDef("conv2", 50, kernel=5),
            PoolDef("pool2", kernel=2, stride=2),
            FlattenDef("flatten"),
            FCDef("fc3", 500),
            ReLUDef("relu3"),
            FCDef("fc4", 10, scale_output=False),
            SoftmaxDef("prob"),
        ],
    )
