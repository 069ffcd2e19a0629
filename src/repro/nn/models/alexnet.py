"""AlexNet (Krizhevsky et al., 2012) — one of the paper's two benchmarks.

The Caffe single-tower variant with 227x227 input, LRN after conv1/conv2 and
2-group convolutions in conv2/conv4/conv5 (the grouping matters: it is what
makes the dense model 1.45 GOP, the figure the paper's Table 2 normalizes
throughput against).
"""

from __future__ import annotations

from .arch import (
    Architecture,
    ConvDef,
    DropoutDef,
    FCDef,
    FlattenDef,
    LRNDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)


def alexnet_architecture() -> Architecture:
    """The AlexNet architecture description."""
    return Architecture(
        name="alexnet",
        input_channels=3,
        input_rows=227,
        input_cols=227,
        defs=[
            ConvDef("conv1", 96, kernel=11, stride=4),
            ReLUDef("relu1"),
            LRNDef("norm1"),
            PoolDef("pool1", kernel=3, stride=2),
            ConvDef("conv2", 256, kernel=5, padding=2, groups=2),
            ReLUDef("relu2"),
            LRNDef("norm2"),
            PoolDef("pool2", kernel=3, stride=2),
            ConvDef("conv3", 384, kernel=3, padding=1),
            ReLUDef("relu3"),
            ConvDef("conv4", 384, kernel=3, padding=1, groups=2),
            ReLUDef("relu4"),
            ConvDef("conv5", 256, kernel=3, padding=1, groups=2),
            ReLUDef("relu5"),
            PoolDef("pool5", kernel=3, stride=2),
            FlattenDef("flatten"),
            FCDef("fc6", 4096),
            ReLUDef("relu6"),
            DropoutDef("drop6"),
            FCDef("fc7", 4096),
            ReLUDef("relu7"),
            DropoutDef("drop7"),
            FCDef("fc8", 1000, scale_output=False),
            SoftmaxDef("prob"),
        ],
    )
