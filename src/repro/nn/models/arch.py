"""Architecture descriptions that build both networks and analytic specs.

An :class:`Architecture` is a declarative layer list. One walk,
:meth:`Architecture.layer_shapes`, resolves every def once against its
input: the layer class and constructor arguments it stands for (channel
scaling, group rounding and depthwise channels included) and its input and
output shapes, without allocating a tensor. Everything else reads that walk:

- :meth:`Architecture.build` constructs those layers, in order, into an
  executable :class:`Network` (optionally channel-scaled so laptop-scale
  tests don't allocate VGG16's 550 MB of fully-connected weights);
- :meth:`Architecture.accelerated_specs` yields the
  :class:`~repro.core.specs.LayerSpec` of every conv/FC layer — what
  Tables 1-3 and the DSE flow consume — at any scale;
- the system model's host-stage cost walks its shapes.

So the analytic and executable views of a model agree at every scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Type, Union

from ...core.specs import LayerSpec, conv_spec, fc_spec
from ..initializers import initialize_network
from ..layers import (
    AvgPool2D,
    Conv2D,
    Dropout,
    Flatten,
    FullyConnected,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
)
from ..layers.base import Layer
from ..network import Network
from ..tensor import FeatureShape, conv_output_extent, pool_output_extent

#: The pooling layer each ``PoolDef.kind`` builds.
_POOLS = {"max": MaxPool2D, "avg": AvgPool2D}


@dataclass(frozen=True)
class ConvDef:
    name: str
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    groups: int = 1
    #: Depthwise convolution: one filter per input channel (groups == the
    #: input channel count, output channels == input channels). The
    #: ``out_channels``/``groups`` fields are ignored when set.
    depthwise: bool = False


@dataclass(frozen=True)
class PoolDef:
    name: str
    kernel: int
    stride: int
    kind: str = "max"

    def __post_init__(self) -> None:
        if self.kind not in _POOLS:
            raise ValueError(
                f"{self.name}: pool kind must be 'max' or 'avg', got {self.kind!r}"
            )


@dataclass(frozen=True)
class FCDef:
    name: str
    out_features: int
    scale_output: bool = True


@dataclass(frozen=True)
class ReLUDef:
    name: str


@dataclass(frozen=True)
class LRNDef:
    name: str
    local_size: int = 5
    alpha: float = 1e-4
    beta: float = 0.75


@dataclass(frozen=True)
class DropoutDef:
    name: str
    rate: float = 0.5


@dataclass(frozen=True)
class FlattenDef:
    name: str


@dataclass(frozen=True)
class SoftmaxDef:
    name: str


LayerDef = Union[
    ConvDef, PoolDef, FCDef, ReLUDef, LRNDef, DropoutDef, FlattenDef, SoftmaxDef
]


#: Shape-keeping defs and the layer each builds; the def's fields other
#: than ``name`` are the layer's keyword arguments.
_SHAPE_KEEPING = {
    ReLUDef: ReLU,
    LRNDef: LocalResponseNorm,
    DropoutDef: Dropout,
    SoftmaxDef: Softmax,
}


def _scaled(value: int, scale: float) -> int:
    """Scale a channel count, never below 1."""
    return max(1, int(round(value * scale)))


@dataclass(frozen=True)
class ResolvedLayer:
    """One layer def resolved against its input shape.

    ``layer_type(definition.name, **args)`` is the layer
    :meth:`Architecture.build` constructs. ``layer_type`` is None for a def
    the walk does not know; its shape passes through unchanged.
    """

    definition: LayerDef
    layer_type: Optional[Type[Layer]]
    args: Dict[str, Any]
    in_shape: FeatureShape
    out_shape: FeatureShape

    def build(self) -> Layer:
        if self.layer_type is None:
            raise TypeError(f"unknown layer definition {self.definition!r}")
        return self.layer_type(self.definition.name, **self.args)


@dataclass
class Architecture:
    """A named CNN architecture description."""

    name: str
    input_channels: int
    input_rows: int
    input_cols: int
    defs: Sequence[LayerDef] = field(default_factory=list)

    def _input_shape(self, spatial_scale: float) -> FeatureShape:
        return FeatureShape(
            self.input_channels,
            max(8, int(round(self.input_rows * spatial_scale))),
            max(8, int(round(self.input_cols * spatial_scale))),
        )

    def layer_shapes(
        self, scale: float = 1.0, spatial_scale: float = 1.0
    ) -> List[ResolvedLayer]:
        """Resolve every def once, in order: its layer and its shapes.

        ``scale`` multiplies channel counts: grouped convolutions keep
        their group counts, and a scaled count is rounded up to a multiple
        of its own groups and of the next convolution's (its input
        grouping). ``spatial_scale`` multiplies the input resolution, never
        below 8 pixels. No tensor is allocated, so this works for models
        whose weights would not fit in memory.
        """
        if scale <= 0 or spatial_scale <= 0:
            raise ValueError("scale factors must be positive")
        conv_defs = [d for d in self.defs if isinstance(d, ConvDef)]
        next_groups = {
            d.name: conv_defs[i + 1].groups if i + 1 < len(conv_defs) else 1
            for i, d in enumerate(conv_defs)
        }
        shape = self._input_shape(spatial_scale)
        flattened = False
        resolved: List[ResolvedLayer] = []
        for layer_def in self.defs:
            channels, rows, cols = shape.as_tuple()
            layer_type, args, out_shape = None, {}, shape
            if isinstance(layer_def, ConvDef):
                if layer_def.depthwise:
                    out_channels = groups = channels
                else:
                    divisor = math.lcm(layer_def.groups, next_groups[layer_def.name])
                    scaled = _scaled(layer_def.out_channels, scale)
                    out_channels = math.ceil(scaled / divisor) * divisor
                    groups = layer_def.groups
                layer_type = Conv2D
                args = dict(
                    in_channels=channels,
                    out_channels=out_channels,
                    kernel=layer_def.kernel,
                    stride=layer_def.stride,
                    padding=layer_def.padding,
                    groups=groups,
                )
                out_shape = FeatureShape(
                    out_channels,
                    conv_output_extent(
                        rows, layer_def.kernel, layer_def.stride, layer_def.padding
                    ),
                    conv_output_extent(
                        cols, layer_def.kernel, layer_def.stride, layer_def.padding
                    ),
                )
            elif isinstance(layer_def, PoolDef):
                layer_type = _POOLS[layer_def.kind]
                args = dict(kernel=layer_def.kernel, stride=layer_def.stride)
                out_shape = FeatureShape(
                    channels,
                    pool_output_extent(rows, layer_def.kernel, layer_def.stride),
                    pool_output_extent(cols, layer_def.kernel, layer_def.stride),
                )
            elif isinstance(layer_def, FCDef):
                if not flattened and (rows, cols) != (1, 1):
                    raise ValueError(
                        f"{layer_def.name}: FC layer requires a flattened input"
                    )
                out_features = (
                    _scaled(layer_def.out_features, scale)
                    if layer_def.scale_output
                    else layer_def.out_features
                )
                layer_type = FullyConnected
                args = dict(in_features=shape.size, out_features=out_features)
                out_shape = FeatureShape(out_features, 1, 1)
            elif isinstance(layer_def, FlattenDef):
                layer_type = Flatten
                out_shape = FeatureShape(shape.size, 1, 1)
                flattened = True
            elif type(layer_def) in _SHAPE_KEEPING:
                layer_type = _SHAPE_KEEPING[type(layer_def)]
                args = {
                    f.name: getattr(layer_def, f.name)
                    for f in fields(layer_def)
                    if f.name != "name"
                }
            resolved.append(
                ResolvedLayer(layer_def, layer_type, args, shape, out_shape)
            )
            shape = out_shape
        return resolved

    def accelerated_specs(
        self, scale: float = 1.0, spatial_scale: float = 1.0
    ) -> List[LayerSpec]:
        """Conv/FC :class:`LayerSpec` list of :meth:`build` at the same scales.

        Read off :meth:`layer_shapes`, so no network or tensor is built at
        any scale.
        """
        specs: List[LayerSpec] = []
        # Conv2D's and FullyConnected's constructor arguments are
        # conv_spec's and fc_spec's keyword arguments.
        for layer in self.layer_shapes(scale, spatial_scale):
            name = layer.definition.name
            if layer.layer_type is Conv2D:
                specs.append(
                    conv_spec(
                        name,
                        in_rows=layer.in_shape.rows,
                        in_cols=layer.in_shape.cols,
                        **layer.args,
                    )
                )
            elif layer.layer_type is FullyConnected:
                specs.append(fc_spec(name, **layer.args))
        return specs

    def build(
        self,
        scale: float = 1.0,
        seed: Optional[int] = 0,
        spatial_scale: float = 1.0,
    ) -> Network:
        """Instantiate an executable network from :meth:`layer_shapes`.

        Parameters
        ----------
        scale:
            Channel-count multiplier (1.0 = the published architecture).
        seed:
            Seed for the synthetic Laplacian weights; ``None`` leaves all
            weights zero (useful when a pruner/quantizer will overwrite them).
        spatial_scale:
            Input resolution multiplier for cheap end-to-end runs.
        """
        layers = [layer.build() for layer in self.layer_shapes(scale, spatial_scale)]
        network = Network(self.name, self._input_shape(spatial_scale), layers)
        if seed is not None:
            initialize_network(network, seed=seed)
        return network
