"""Tests for repro.nn.network and initializers."""

import numpy as np
import pytest

from repro.nn.initializers import initialize_network
from repro.nn.layers import Conv2D, ReLU
from repro.nn.network import Network
from repro.nn.tensor import FeatureShape
from repro.nn.initializers import he_std, laplacian_weights
from tests.conftest import layer_named


@pytest.fixture
def network(tiny_architecture):
    return tiny_architecture.build(seed=5)


class TestNetwork:
    def test_shape_inference(self, network):
        x = np.zeros(network.input_shape.as_tuple())
        assert network.forward(x).shape == (10, 1, 1)

    def test_duplicate_names_rejected(self):
        layers = [Conv2D("x", 3, 4, kernel=3, padding=1), ReLU("x")]
        with pytest.raises(ValueError):
            Network("bad", FeatureShape(3, 8, 8), layers)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            Network("bad", FeatureShape(3, 8, 8), [])

    def test_forward_validates_input_shape(self, network):
        with pytest.raises(ValueError):
            network.forward(np.zeros((3, 5, 5)))

    def test_activations_capture_every_layer(self, network, rng):
        x = rng.normal(size=network.input_shape.as_tuple())
        captured = network.activations(x)
        assert set(captured) == {layer.name for layer in network}
        assert captured["pool1"].shape == (8, 8, 8)
        assert np.array_equal(captured["prob"], network.forward(x))

    def test_accelerated_layers(self, network):
        names = [layer.name for layer in network.accelerated_layers()]
        assert names == ["conv1", "conv2", "fc3", "fc4"]


class TestInitializers:
    def test_deterministic(self, tiny_architecture):
        a = tiny_architecture.build(seed=9)
        b = tiny_architecture.build(seed=9)
        assert np.array_equal(layer_named(a, "conv1").weights, layer_named(b, "conv1").weights)

    def test_seed_changes_weights(self, tiny_architecture):
        a = tiny_architecture.build(seed=1)
        b = tiny_architecture.build(seed=2)
        assert not np.array_equal(layer_named(a, "conv1").weights, layer_named(b, "conv1").weights)

    def test_none_seed_leaves_zeros(self, tiny_architecture):
        network = tiny_architecture.build(seed=None)
        assert not np.any(layer_named(network, "conv1").weights)

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
        assert np.any(layer_named(network, "conv1").weights)
