"""Host-CPU execution model for the non-accelerated layers.

In the paper's system (Section 6.1) the FPGA executes all convolution and
FC layers while "the remaining layers, such as pooling, LRN and softmax,
are executed by the host program on CPU", and pipelined processing hides
the CPU time behind the FPGA time.

This model estimates the host's per-image time from per-element operation
costs: each layer class maps to an elementwise op count, divided by the
host's sustained rate (default: a couple of vectorized Xeon cores). The
hiding claim is then *tested* against the simulated FPGA time rather than
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..nn.layers import (
    AvgPool2D,
    Dropout,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
)
from ..nn.layers.base import Layer
from ..nn.models.arch import Architecture
from ..nn.network import Network
from ..nn.tensor import FeatureShape


@dataclass(frozen=True)
class HostLayerCost:
    """Estimated host work for one CPU layer."""

    name: str
    kind: str
    elementwise_ops: int

    def seconds(self, ops_per_second: float) -> float:
        if ops_per_second <= 0:
            raise ValueError("host rate must be positive")
        return self.elementwise_ops / ops_per_second


class UnknownHostLayerError(TypeError):
    """A host-side layer the cost model has no entry for.

    Returning 0 here would silently understate the CPU stage and could
    flip the paper's "CPU time is hidden" verdict, so an unrecognized
    layer is an error, not free work.
    """


def _host_ops(
    kind: type, layer, in_shape: FeatureShape, out_shape: FeatureShape
) -> int:
    """The host-cost table: elementwise ops of one CPU layer of class ``kind``.

    ``layer`` is the layer itself or the architecture def it is built from
    (pooling reads its ``kernel``). Pooling costs one compare/add per window
    element; LRN costs a square, a windowed sum (via prefix sums, ~2 ops), a
    power and a divide (~8 ops total) per element; softmax an exp+div
    (~10); ReLU one op. Layers with no arithmetic (dropout, flatten) are free. Unknown layer
    types raise :class:`UnknownHostLayerError` rather than silently costing
    nothing.
    """
    if issubclass(kind, (MaxPool2D, AvgPool2D)):
        return out_shape.size * layer.kernel * layer.kernel
    if issubclass(kind, LocalResponseNorm):
        return in_shape.size * 8
    if issubclass(kind, Softmax):
        return in_shape.size * 10
    if issubclass(kind, ReLU):
        return in_shape.size
    if issubclass(kind, (Dropout, Flatten)):
        return 0
    raise UnknownHostLayerError(
        f"no host cost model for layer {layer.name!r} "
        f"({kind.__name__}); add it to repro.system.host._host_ops"
    )


def host_layer_ops(layer: Layer, input_shape: FeatureShape) -> int:
    """Elementwise operation estimate for one host layer."""
    return _host_ops(type(layer), layer, input_shape, layer.output_shape(input_shape))


def host_ops_from_architecture(
    architecture: Architecture, scale: float = 1.0, spatial_scale: float = 1.0
) -> int:
    """Elementwise host ops per image, read off the architecture walk.

    The same table as :func:`host_costs` on ``architecture.build(scale,
    spatial_scale=spatial_scale)``, without building the network, so
    full-size VGG16 never allocates its FC tensors.
    """
    total = 0
    for resolved in architecture.layer_shapes(scale, spatial_scale):
        # A def the walk does not know has no layer type: the table rejects
        # it by its def's type name.
        kind = resolved.layer_type or type(resolved.definition)
        if not getattr(kind, "runs_on_accelerator", False):
            total += _host_ops(
                kind, resolved.definition, resolved.in_shape, resolved.out_shape
            )
    return total


def host_costs(network: Network) -> List[HostLayerCost]:
    """Host cost of every CPU-side layer of a network, in order."""
    costs = []
    shape = network.input_shape
    for layer in network:
        if not layer.runs_on_accelerator:
            costs.append(
                HostLayerCost(
                    name=layer.name,
                    kind=type(layer).__name__,
                    elementwise_ops=host_layer_ops(layer, shape),
                )
            )
        shape = layer.output_shape(shape)
    return costs


#: Default sustained host rate. The DE5-Net sits in a Xeon-class host; a
#: couple of vectorized cores sustain ~4 G elementwise ops/s on pooling/LRN
#: loops, which is what the paper's pipelining claim presumes.
DEFAULT_HOST_OPS_PER_SECOND = 4e9


@dataclass(frozen=True)
class HostModel:
    """The host CPU: per-image time for the non-accelerated layers."""

    ops_per_second: float = DEFAULT_HOST_OPS_PER_SECOND

    def seconds_per_image(self, network: Network) -> float:
        return sum(c.seconds(self.ops_per_second) for c in host_costs(network))
