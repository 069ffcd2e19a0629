"""A tiny MobileNetV1-style CNN: depthwise-separable convolutions.

Exercises the grouped-convolution extreme (groups == channels) through the
whole stack — encoder, ABM execution, tiling, simulator. Depthwise layers
are also the stress case for ABM's arithmetic-intensity analysis: each
kernel holds only K*K weights, so the Acc/Mult ratio is small and the
sharing factor N is bounded by these layers, not the big pointwise ones.
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


def _ds_block(index: int, out_channels: int, stride: int = 1) -> list:
    """One depthwise-separable block: 3x3 depthwise + 1x1 pointwise."""
    return [
        ConvDef(f"dw{index}", 0, kernel=3, stride=stride, padding=1, depthwise=True),
        ReLUDef(f"dw{index}_relu"),
        ConvDef(f"pw{index}", out_channels, kernel=1),
        ReLUDef(f"pw{index}_relu"),
    ]


def mobilenet_tiny_architecture() -> Architecture:
    """A 4-block depthwise-separable CNN for 32x32 inputs."""
    defs = [
        ConvDef("stem", 16, kernel=3, padding=1, stride=1),
        ReLUDef("stem_relu"),
    ]
    defs += _ds_block(1, 32)
    defs += _ds_block(2, 32, stride=2)
    defs += _ds_block(3, 64)
    defs += _ds_block(4, 64, stride=2)
    defs += [
        PoolDef("pool", kernel=8, stride=8, kind="avg"),
        FlattenDef("flatten"),
        FCDef("fc", 10, scale_output=False),
        SoftmaxDef("prob"),
    ]
    return Architecture(
        name="mobilenet-tiny",
        input_channels=3,
        input_rows=32,
        input_cols=32,
        defs=defs,
    )
