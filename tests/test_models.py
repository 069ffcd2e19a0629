"""Tests for the model zoo — dimensions must match the paper exactly."""

import numpy as np
import pytest

from repro.core.specs import conv_spec, fc_spec
from repro.nn.layers import Conv2D
from repro.nn.layers.base import Layer
from repro.nn.models import (
    PoolDef,
    alexnet_architecture,
    get_architecture,
    vgg16_architecture,
)
from repro.nn.network import Network
from tests.conftest import input_shape_of, layer_named

#: Every model of the zoo.
ZOO = ("alexnet", "cifarnet", "lenet", "vgg16")

#: Channel / input-resolution scales each model is built at: the
#: paper-scale ones scaled so their FC tensors stay cheap.
SCALED_POINTS = {
    name: [(0.5, 0.25), (0.12, 0.42)] for name in ("alexnet", "vgg16")
}
SMALL_MODEL_POINTS = [(1.0, 1.0), (0.5, 1.0)]


def specs_read_off(network):
    """The conv/FC specs of a built network's layers and input shapes."""
    specs = []
    for layer in network.accelerated_layers():
        in_shape = input_shape_of(network, layer.name)
        if isinstance(layer, Conv2D):
            specs.append(
                conv_spec(
                    layer.name,
                    layer.in_channels,
                    layer.out_channels,
                    layer.kernel,
                    in_shape.rows,
                    in_shape.cols,
                    stride=layer.stride,
                    padding=layer.padding,
                    groups=layer.groups,
                )
            )
        else:
            specs.append(fc_spec(layer.name, layer.in_features, layer.out_features))
    return specs


class TestVGG16:
    @pytest.fixture(scope="class")
    def specs(self):
        return {s.name: s for s in vgg16_architecture().accelerated_specs()}

    def test_total_ops_match_paper(self, specs):
        """Paper Table 1: VGG16 SDConv total is 30,941 MOP."""
        total = sum(s.dense_ops for s in specs.values())
        assert total / 1e6 == pytest.approx(30941, rel=0.001)

    def test_parameter_count(self, specs):
        total = sum(s.weight_count for s in specs.values())
        assert total / 1e6 == pytest.approx(138.3, rel=0.01)

    @pytest.mark.parametrize(
        "layer,mop",
        [
            ("conv1_1", 173),
            ("conv1_2", 3699),
            ("conv4_1", 1849),
            ("conv4_2", 3699),
            ("fc6", 205),
            ("fc7", 33.6),
        ],
    )
    def test_table1_layer_ops(self, specs, layer, mop):
        assert specs[layer].dense_ops / 1e6 == pytest.approx(mop, rel=0.01)

    def test_table1_layer_dims(self, specs):
        """Paper Table 1 prints C=R=224, N=3, K=3x3, M=64 for CONV1_1 etc."""
        conv1_1 = specs["conv1_1"]
        assert (conv1_1.in_channels, conv1_1.out_channels) == (3, 64)
        assert (conv1_1.out_rows, conv1_1.out_cols) == (224, 224)
        conv4_2 = specs["conv4_2"]
        assert (conv4_2.in_channels, conv4_2.out_channels) == (512, 512)
        assert (conv4_2.out_rows, conv4_2.out_cols) == (28, 28)
        fc6 = specs["fc6"]
        assert (fc6.in_channels, fc6.out_channels) == (25088, 4096)

    def test_layer_count(self, specs):
        assert len(specs) == 16  # 13 conv + 3 fc


class TestAlexNet:
    @pytest.fixture(scope="class")
    def specs(self):
        return {s.name: s for s in alexnet_architecture().accelerated_specs()}

    def test_total_ops(self, specs):
        """Paper Table 2 normalizes AlexNet throughput to ~1.45 GOP."""
        total = sum(s.dense_ops for s in specs.values())
        assert total / 1e9 == pytest.approx(1.449, rel=0.01)

    def test_parameter_count(self, specs):
        total = sum(s.weight_count for s in specs.values())
        assert total / 1e6 == pytest.approx(61.0, rel=0.01)

    def test_grouped_convolutions(self, specs):
        assert specs["conv2"].groups == 2
        assert specs["conv4"].groups == 2
        assert specs["conv5"].groups == 2
        assert specs["conv1"].groups == 1

    def test_conv1_geometry(self, specs):
        conv1 = specs["conv1"]
        assert conv1.kernel == 11
        assert conv1.stride == 4
        assert (conv1.out_rows, conv1.out_cols) == (55, 55)

    def test_fc6_input(self, specs):
        assert specs["fc6"].in_channels == 256 * 6 * 6


class TestBuildScaling:
    def test_scaled_build_runs(self, rng):
        network = alexnet_architecture().build(scale=0.1, spatial_scale=0.3)
        x = rng.normal(size=network.input_shape.as_tuple())
        out = network.forward(x)
        assert out.shape == (1000, 1, 1)
        assert out.sum() == pytest.approx(1.0)

    def test_scale_keeps_group_divisibility(self):
        network = alexnet_architecture().build(scale=0.13, seed=None)
        conv2 = layer_named(network, "conv2")
        assert conv2.out_channels % conv2.groups == 0

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            alexnet_architecture().build(scale=0.0)

    def test_specs_and_build_agree_at_full_scale(self, tiny_architecture):
        specs = tiny_architecture.accelerated_specs()
        network = tiny_architecture.build(seed=None)
        for spec in specs:
            layer = layer_named(network, spec.name)
            weights = layer.weights
            if spec.is_fc:
                assert weights.shape == (spec.out_channels, spec.in_channels)
            else:
                assert weights.shape == spec.weight_shape()

    def test_specs_match_the_built_network(self):
        """accelerated_specs(scale, spatial_scale) is what build() constructs."""
        for name in ZOO:
            architecture = get_architecture(name)
            for scale, spatial_scale in SCALED_POINTS.get(name, SMALL_MODEL_POINTS):
                network = architecture.build(scale, seed=None, spatial_scale=spatial_scale)
                specs = architecture.accelerated_specs(scale, spatial_scale)
                assert specs == specs_read_off(network), (name, scale, spatial_scale)

    def test_specs_build_nothing(self, monkeypatch):
        """Specs are read off the symbolic walk at every scale: no network,
        no layer and so no weight tensor is constructed."""

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} constructed")

        monkeypatch.setattr(Network, "__init__", refuse)
        monkeypatch.setattr(Layer, "__init__", refuse)
        for name in ZOO:
            architecture = get_architecture(name)
            points = SCALED_POINTS.get(name, SMALL_MODEL_POINTS) + [(1.0, 1.0)]
            for scale, spatial_scale in points:
                assert architecture.accelerated_specs(scale, spatial_scale)

    def test_pool_kind_is_validated(self):
        """A mistyped pool kind once built an average pool silently."""
        with pytest.raises(ValueError, match="pool3"):
            PoolDef("pool3", kernel=2, stride=2, kind="maxx")
        assert PoolDef("pool3", kernel=2, stride=2, kind="avg").kind == "avg"


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert get_architecture("VGG16").name == "vgg16"

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="alexnet, cifarnet, lenet, vgg16"):
            get_architecture("resnet50")
