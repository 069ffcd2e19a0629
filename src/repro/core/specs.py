"""Analytic layer specifications.

Tables 1-3 and the DSE flow need the *dimensions* of every accelerated layer
of full-size AlexNet/VGG16 without materializing hundred-megabyte weight
tensors. A :class:`LayerSpec` captures exactly the parameters of Equation (1)
— (N, R, C) input, (M, R', C') output, K, S, padding and channel groups —
and derives operation and weight counts from them. Fully-connected layers
are specs with R' = C' = K = 1, the paper's FC-as-convolution view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

CONV = "conv"
FC = "fc"


@dataclass(frozen=True)
class LayerSpec:
    """Dimensions of one accelerated (conv or FC) layer."""

    name: str
    kind: str
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    padding: int
    groups: int
    in_rows: int
    in_cols: int
    out_rows: int
    out_cols: int

    def __post_init__(self) -> None:
        if self.kind not in (CONV, FC):
            raise ValueError(f"kind must be 'conv' or 'fc', got {self.kind!r}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(f"{self.name}: channels must divide into groups")
        dims = (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
            self.groups,
            self.in_rows,
            self.in_cols,
            self.out_rows,
            self.out_cols,
        )
        if min(dims) < 1 or self.padding < 0:
            raise ValueError(f"{self.name}: dimensions must be positive")

    # ---- derived dimension counts -------------------------------------

    @property
    def weights_per_kernel(self) -> int:
        """Weights feeding one output pixel: (N/groups) * K * K."""
        return (self.in_channels // self.groups) * self.kernel * self.kernel

    @property
    def kernel_count(self) -> int:
        """Number of convolution kernels evaluated: M * R' * C'."""
        return self.out_channels * self.out_rows * self.out_cols

    @property
    def output_pixels(self) -> int:
        """Spatial output positions R' * C'."""
        return self.out_rows * self.out_cols

    @property
    def weight_count(self) -> int:
        """Total weights of the layer (M * (N/groups) * K * K)."""
        return self.out_channels * self.weights_per_kernel

    @property
    def macs(self) -> int:
        """Dense multiply-accumulate count."""
        return self.kernel_count * self.weights_per_kernel

    @property
    def dense_ops(self) -> int:
        """The paper's '#OP' convention: 2 operations per MAC."""
        return 2 * self.macs

    @property
    def input_size(self) -> int:
        """Input feature-map elements N * R * C."""
        return self.in_channels * self.in_rows * self.in_cols

    @property
    def is_fc(self) -> bool:
        return self.kind == FC

    def weight_shape(self) -> Tuple[int, int, int, int]:
        """Shape of the weight tensor: (M, N/groups, K, K)."""
        return (
            self.out_channels,
            self.in_channels // self.groups,
            self.kernel,
            self.kernel,
        )


def conv_spec(
    name: str,
    in_channels: int,
    out_channels: int,
    kernel: int,
    in_rows: int,
    in_cols: int,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> LayerSpec:
    """Build a convolution spec, deriving the output extent."""
    out_rows = (in_rows + 2 * padding - kernel) // stride + 1
    out_cols = (in_cols + 2 * padding - kernel) // stride + 1
    return LayerSpec(
        name=name,
        kind=CONV,
        in_channels=in_channels,
        out_channels=out_channels,
        kernel=kernel,
        stride=stride,
        padding=padding,
        groups=groups,
        in_rows=in_rows,
        in_cols=in_cols,
        out_rows=out_rows,
        out_cols=out_cols,
    )


def fc_spec(name: str, in_features: int, out_features: int) -> LayerSpec:
    """Build an FC spec as a 1x1 convolution over a 1x1 map (paper Sec. 2)."""
    return LayerSpec(
        name=name,
        kind=FC,
        in_channels=in_features,
        out_channels=out_features,
        kernel=1,
        stride=1,
        padding=0,
        groups=1,
        in_rows=1,
        in_cols=1,
        out_rows=1,
        out_cols=1,
    )
