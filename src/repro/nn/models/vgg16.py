"""VGG16 (Simonyan & Zisserman, 2014) — the paper's main benchmark.

Configuration D: thirteen 3x3/'same' convolutions in five blocks with 2x2
max pooling, then fc6/fc7/fc8. Dense op count is 30.94 GOP for a 224x224
input, the number every throughput figure in the paper is normalized to.
"""

from __future__ import annotations

from .arch import (
    Architecture,
    ConvDef,
    DropoutDef,
    FCDef,
    FlattenDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)

#: Channel widths of the five VGG16 convolution blocks.
_BLOCKS = [
    (1, 64, 2),
    (2, 128, 2),
    (3, 256, 3),
    (4, 512, 3),
    (5, 512, 3),
]


def vgg16_architecture() -> Architecture:
    """The VGG16-D architecture description."""
    defs = []
    for block, channels, repeats in _BLOCKS:
        for i in range(1, repeats + 1):
            defs.append(ConvDef(f"conv{block}_{i}", channels, kernel=3, padding=1))
            defs.append(ReLUDef(f"relu{block}_{i}"))
        defs.append(PoolDef(f"pool{block}", kernel=2, stride=2))
    defs.extend(
        [
            FlattenDef("flatten"),
            FCDef("fc6", 4096),
            ReLUDef("relu6"),
            DropoutDef("drop6"),
            FCDef("fc7", 4096),
            ReLUDef("relu7"),
            DropoutDef("drop7"),
            FCDef("fc8", 1000, scale_output=False),
            SoftmaxDef("prob"),
        ]
    )
    return Architecture(
        name="vgg16",
        input_channels=3,
        input_rows=224,
        input_cols=224,
        defs=defs,
    )
