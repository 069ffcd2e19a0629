"""Tests for repro.nn.network and initializers."""

import numpy as np
import pytest

from repro.nn.initializers import initialize_network
from repro.nn.layers import Conv2D, ReLU
from repro.nn.network import Network
from repro.nn.tensor import FeatureShape
from repro.nn.initializers import he_std, laplacian_weights


@pytest.fixture
def network(tiny_architecture):
    return tiny_architecture.build(seed=5)


class TestNetwork:
    def test_shape_inference(self, network):
        assert network.output_shape.as_tuple() == (10, 1, 1)

    def test_duplicate_names_rejected(self):
        layers = [Conv2D("x", 3, 4, kernel=3, padding=1), ReLU("x")]
        with pytest.raises(ValueError):
            Network("bad", FeatureShape(3, 8, 8), layers)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            Network("bad", FeatureShape(3, 8, 8), [])

    def test_layer_lookup(self, network):
        assert network.layer("conv1").name == "conv1"
        with pytest.raises(KeyError):
            network.layer("nope")

    def test_input_shape_of(self, network):
        assert network.input_shape_of("conv1") == network.input_shape
        assert network.input_shape_of("conv2").channels == 8

    def test_output_shape_of(self, network):
        assert network.output_shape_of("pool1").as_tuple() == (8, 8, 8)

    def test_forward_validates_input_shape(self, network):
        with pytest.raises(ValueError):
            network.forward(np.zeros((3, 5, 5)))

    def test_forward_upto(self, network, rng):
        x = rng.normal(size=network.input_shape.as_tuple())
        partial = network.forward(x, upto="pool1")
        assert partial.shape == (8, 8, 8)
        with pytest.raises(KeyError):
            network.forward(x, upto="nothere")

    def test_activations_capture_every_layer(self, network, rng):
        x = rng.normal(size=network.input_shape.as_tuple())
        captured = network.activations(x)
        assert set(captured) == {layer.name for layer in network}

    def test_accelerated_layers(self, network):
        names = [layer.name for layer in network.accelerated_layers()]
        assert names == ["conv1", "conv2", "fc3", "fc4"]

    def test_parameter_count(self, network):
        expected = sum(layer.parameter_count for layer in network)
        assert network.parameter_count() == expected
        assert expected > 0

    def test_operation_count_only_weighted_layers(self, network):
        total = network.operation_count()
        by_layer = sum(row.operations for row in network.summary())
        assert total == by_layer

    def test_summary_rows(self, network):
        rows = network.summary()
        assert len(rows) == len(network)
        conv_row = next(row for row in rows if row.name == "conv1")
        assert conv_row.on_accelerator
        assert conv_row.kind == "Conv2D"


class TestInitializers:
    def test_deterministic(self, tiny_architecture):
        a = tiny_architecture.build(seed=9)
        b = tiny_architecture.build(seed=9)
        assert np.array_equal(a.layer("conv1").weights, b.layer("conv1").weights)

    def test_seed_changes_weights(self, tiny_architecture):
        a = tiny_architecture.build(seed=1)
        b = tiny_architecture.build(seed=2)
        assert not np.array_equal(a.layer("conv1").weights, b.layer("conv1").weights)

    def test_none_seed_leaves_zeros(self, tiny_architecture):
        network = tiny_architecture.build(seed=None)
        assert not np.any(network.layer("conv1").weights)

    def test_he_std(self):
        assert he_std(8) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            he_std(0)

    def test_laplacian_variance_matches_he(self, rng):
        fan_in = 64
        samples = laplacian_weights((20000,), fan_in, rng)
        assert samples.std() == pytest.approx(he_std(fan_in), rel=0.05)

    def test_initialize_network_returns_network(self, tiny_architecture):
        network = tiny_architecture.build(seed=None)
        assert initialize_network(network, seed=3) is network
        assert np.any(network.layer("conv1").weights)
