"""Shape bookkeeping for feature maps.

The paper indexes feature maps as (channels, rows, cols) = (N, R, C) on the
input side and (M, R', C') on the output side of a convolution. A
:class:`FeatureShape` is that CHW shape of one image; arrays add a leading
batch axis (BCHW), since every layer runs on a batch and one image is a
batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FeatureShape:
    """Shape of one feature map: channels x rows x cols."""

    channels: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if min(self.channels, self.rows, self.cols) < 1:
            raise ValueError(f"all dimensions must be positive, got {self}")

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.channels * self.rows * self.cols

    def as_tuple(self) -> tuple:
        return (self.channels, self.rows, self.cols)


def conv_output_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output extent of a convolution along one axis."""
    out = (extent + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"kernel {kernel} / stride {stride} / padding {padding} "
            f"does not fit extent {extent}"
        )
    return out


def pool_output_extent(extent: int, kernel: int, stride: int) -> int:
    """Spatial output extent of a pooling window (ceil mode, AlexNet style).

    Ceil mode lets the last window overhang the edge, but — Caffe's rule —
    never start at or past it, so every window holds at least one real
    pixel (this only bites when ``stride > kernel``).
    """
    if extent < kernel:
        raise ValueError(f"pool kernel {kernel} larger than extent {extent}")
    out = (extent - kernel + stride - 1) // stride + 1
    if (out - 1) * stride >= extent:
        out -= 1
    return out
