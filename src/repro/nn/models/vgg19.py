"""VGG19 (configuration E) — a natural extension benchmark.

The paper evaluates VGG16; VGG19 adds one 3x3 convolution to each of the
last three blocks (39.3 GOP dense). Useful for checking that the DSE flow
and the accelerator model generalize beyond the two published workloads.
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

#: Channel widths and conv counts of the five VGG19 blocks.
_BLOCKS = [
    (1, 64, 2),
    (2, 128, 2),
    (3, 256, 4),
    (4, 512, 4),
    (5, 512, 4),
]


def vgg19_architecture() -> Architecture:
    """The VGG19-E architecture description."""
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
        name="vgg19",
        input_channels=3,
        input_rows=224,
        input_cols=224,
        defs=defs,
    )
