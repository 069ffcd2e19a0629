"""Tests for the DAG network container and the residual model."""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, ReLU
from repro.nn.tensor import FeatureShape
from repro.nn.graph import Add, Concat, GraphNetwork
from repro.nn.models.resnet import tiny_resnet


class TestGraphConstruction:
    def test_duplicate_name_rejected(self):
        network = GraphNetwork("g", FeatureShape(3, 8, 8))
        network.add_layer(Conv2D("c", 3, 4, kernel=3, padding=1))
        with pytest.raises(ValueError):
            network.add_layer(Conv2D("c", 4, 4, kernel=3, padding=1), ["c"])

    def test_unknown_parent_rejected(self):
        network = GraphNetwork("g", FeatureShape(3, 8, 8))
        with pytest.raises(KeyError):
            network.add_layer(Conv2D("c", 3, 4, kernel=3), ["nope"])

    def test_non_merge_needs_single_parent(self):
        network = GraphNetwork("g", FeatureShape(3, 8, 8))
        a = network.add_layer(Conv2D("a", 3, 4, kernel=3, padding=1))
        b = network.add_layer(Conv2D("b", 3, 4, kernel=3, padding=1))
        with pytest.raises(ValueError):
            network.add_layer(ReLU("r"), [a, b])

    def test_add_shape_mismatch_rejected(self):
        network = GraphNetwork("g", FeatureShape(3, 8, 8))
        a = network.add_layer(Conv2D("a", 3, 4, kernel=3, padding=1))
        b = network.add_layer(Conv2D("b", 3, 6, kernel=3, padding=1))
        with pytest.raises(ValueError):
            network.add_layer(Add("sum"), [a, b])

    def test_concat_channel_arithmetic(self):
        network = GraphNetwork("g", FeatureShape(3, 8, 8))
        a = network.add_layer(Conv2D("a", 3, 4, kernel=3, padding=1))
        b = network.add_layer(Conv2D("b", 3, 6, kernel=3, padding=1))
        joined = network.add_layer(Concat("cat"), [a, b])
        assert network.shape_of(joined).channels == 10


class TestGraphExecution:
    def test_add_matches_manual_sum(self, rng):
        network = GraphNetwork("g", FeatureShape(2, 6, 6))
        conv_a = Conv2D("a", 2, 3, kernel=3, padding=1)
        conv_b = Conv2D("b", 2, 3, kernel=3, padding=1)
        conv_a.weights = rng.normal(size=conv_a.weights.shape)
        conv_b.weights = rng.normal(size=conv_b.weights.shape)
        a = network.add_layer(conv_a)
        b = network.add_layer(conv_b)
        network.add_layer(Add("sum"), [a, b])
        x = rng.normal(size=(2, 6, 6))
        expected = conv_a.forward(x) + conv_b.forward(x)
        assert np.allclose(network.forward(x), expected)

    def test_concat_matches_manual(self, rng):
        network = GraphNetwork("g", FeatureShape(2, 6, 6))
        conv_a = Conv2D("a", 2, 3, kernel=3, padding=1)
        conv_b = Conv2D("b", 2, 5, kernel=3, padding=1)
        a = network.add_layer(conv_a)
        b = network.add_layer(conv_b)
        network.add_layer(Concat("cat"), [a, b])
        x = rng.normal(size=(2, 6, 6))
        out = network.forward(x)
        assert out.shape == (8, 6, 6)
        assert np.allclose(out[:3], conv_a.forward(x))

    def test_input_shape_validated(self):
        network = GraphNetwork("g", FeatureShape(2, 6, 6))
        network.add_layer(ReLU("r"))
        with pytest.raises(ValueError):
            network.forward(np.zeros((2, 5, 5)))

    def test_topological_order_respects_edges(self):
        network = GraphNetwork("g", FeatureShape(2, 6, 6))
        a = network.add_layer(Conv2D("a", 2, 3, kernel=3, padding=1))
        b = network.add_layer(ReLU("b"), [a])
        network.add_layer(Add("sum"), [a, b])
        order = network.topological_order()
        assert order.index("a") < order.index("b") < order.index("sum")


class TestTinyResNet:
    def test_forward(self, rng):
        network = tiny_resnet(seed=4)
        out = network.forward(rng.normal(size=(3, 32, 32)))
        assert out.shape == (10, 1, 1)
        assert out.sum() == pytest.approx(1.0)

    def test_skip_connection_changes_output(self, rng):
        """The residual join must actually contribute (not a dead branch)."""
        network = tiny_resnet(seed=4)
        x = rng.normal(size=(3, 32, 32))
        baseline = network.forward(x)
        # Zero the skip projection of block2: output must change.
        projection = network.layer("block2_proj")
        projection.weights = np.zeros_like(projection.weights)
        assert not np.allclose(network.forward(x), baseline)

    def test_accelerated_specs_cover_all_convs(self):
        network = tiny_resnet()
        specs = {s.name for s in network.accelerated_specs()}
        assert {"stem", "block1_a", "block1_b", "block2_proj", "fc"} <= specs

    def test_specs_drive_the_simulator(self, rng):
        """A branching model runs through the accelerator stack unchanged."""
        from repro.hw.accelerator import AcceleratorSimulator
        from repro.hw.config import AcceleratorConfig
        from repro.hw.device import STRATIX_V_GXA7
        from repro.hw.workload import ModelWorkload
        from repro.workloads.synthetic import synthetic_layer_workload

        network = tiny_resnet()
        layers = tuple(
            synthetic_layer_workload(spec, 0.4, 16, rng)
            for spec in network.accelerated_specs()
        )
        workload = ModelWorkload(name="tiny-resnet", layers=layers)
        config = AcceleratorConfig(n_cu=2, n_knl=4, n_share=4, s_ec=8, d_f=512)
        result = AcceleratorSimulator(config, STRATIX_V_GXA7).simulate(workload)
        assert result.throughput_gops > 0
        assert result.cu_utilization > 0.5
