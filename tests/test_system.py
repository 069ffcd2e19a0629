"""Tests for the CPU/FPGA pipelined system model."""

import pytest

from repro.hw import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16, STRATIX_V_GXA7
from repro.nn.layers import BatchNorm
from repro.nn.layers.base import Layer
from repro.nn.tensor import FeatureShape
from repro.system.host import (
    HostModel,
    UnknownHostLayerError,
    host_costs,
    host_layer_ops,
)
from repro.system.pipeline import host_ops_from_architecture, run_system
from repro.nn.models import alexnet_architecture, get_architecture, vgg16_architecture
from repro.workloads import synthetic_model_workload


class TestHostModel:
    def test_costs_cover_cpu_layers_only(self, tiny_architecture):
        network = tiny_architecture.build(seed=1)
        costs = host_costs(network)
        names = {cost.name for cost in costs}
        assert "conv1" not in names and "fc3" not in names
        assert {"relu1", "pool1", "prob"} <= names

    def test_free_layers(self, tiny_architecture):
        network = tiny_architecture.build(seed=1)
        costs = {cost.name: cost for cost in host_costs(network)}
        assert costs["flatten"].elementwise_ops == 0

    def test_pool_cost_scales_with_kernel(self, tiny_architecture):
        network = tiny_architecture.build(seed=1)
        costs = {cost.name: cost for cost in host_costs(network)}
        pool1 = network.layer("pool1")
        out = network.output_shape_of("pool1")
        assert costs["pool1"].elementwise_ops == out.size * pool1.kernel**2

    def test_seconds_positive(self, tiny_architecture):
        network = tiny_architecture.build(seed=1)
        assert HostModel().seconds_per_image(network) > 0

    def test_invalid_rate(self, tiny_architecture):
        network = tiny_architecture.build(seed=1)
        with pytest.raises(ValueError):
            HostModel(ops_per_second=0).seconds_per_image(network)

    def test_symbolic_matches_network_walk(self, tiny_architecture):
        """The allocation-free architecture walk equals the network walk."""
        network = tiny_architecture.build(seed=1)
        from_network = sum(c.elementwise_ops for c in host_costs(network))
        from_arch = host_ops_from_architecture(tiny_architecture)
        assert from_arch == from_network

    def test_symbolic_walk_full_vgg(self):
        """Full-size VGG16 host ops computable without weight allocation."""
        ops = host_ops_from_architecture(vgg16_architecture())
        # ReLU + pools + softmax over ~13.5M activations -> tens of MOPs.
        assert 10e6 < ops < 100e6

    def test_unknown_layer_raises(self):
        """Regression: an unmodelled host layer must not silently cost 0."""

        class Mystery(Layer):
            def output_shape(self, input_shape):
                return input_shape

            def forward(self, features):  # pragma: no cover - never run
                return features

        with pytest.raises(UnknownHostLayerError, match="Mystery"):
            host_layer_ops(Mystery("mystery"), FeatureShape(3, 8, 8))

    def test_batchnorm_costed(self):
        """Inference BN is a fused scale+shift: 2 ops per element."""
        shape = FeatureShape(4, 8, 8)
        ops = host_layer_ops(BatchNorm("bn", channels=4), shape)
        assert ops == shape.size * 2

    def test_symbolic_walk_rejects_unknown_def(self):
        """The architecture walk raises like the network walk does."""
        from repro.nn.models import Architecture

        class MysteryDef:
            name = "mystery"

        architecture = Architecture(
            name="odd", input_channels=1, input_rows=4, input_cols=4,
            defs=[MysteryDef()],
        )
        with pytest.raises(UnknownHostLayerError, match="MysteryDef"):
            host_ops_from_architecture(architecture)

    def test_symbolic_matches_network_walk_alexnet(self):
        """Pin the two cost walks against each other on full AlexNet.

        A new host layer added to one walk but not the other drifts the
        system model silently; this catches it on a paper-scale network
        (built with zero weights so the FC tensors stay cheap).
        """
        architecture = alexnet_architecture()
        network = architecture.build(seed=None)
        from_network = sum(c.elementwise_ops for c in host_costs(network))
        from_arch = host_ops_from_architecture(architecture)
        assert from_network > 0
        assert from_arch == from_network


class TestPipelinedSystem:
    @pytest.fixture(scope="class")
    def vgg_system(self):
        return run_system(
            get_architecture("vgg16"),
            synthetic_model_workload("vgg16", seed=1),
            PAPER_CONFIG_VGG16,
            STRATIX_V_GXA7,
        )

    @pytest.fixture(scope="class")
    def alexnet_system(self):
        return run_system(
            get_architecture("alexnet"),
            synthetic_model_workload("alexnet", seed=1),
            PAPER_CONFIG_ALEXNET,
            STRATIX_V_GXA7,
        )

    def test_cpu_hidden(self, vgg_system, alexnet_system):
        """Paper Section 6.1: 'the execution time of CPU were hidden'."""
        assert vgg_system.cpu_hidden
        assert alexnet_system.cpu_hidden

    def test_system_equals_fpga_when_hidden(self, vgg_system):
        assert vgg_system.system_gops == pytest.approx(vgg_system.fpga_gops)
        assert vgg_system.bottleneck == "fpga"

    def test_pipelining_beats_sequential(self, vgg_system):
        assert vgg_system.pipeline_speedup > 1.0
        assert (
            vgg_system.pipelined_seconds_per_image
            < vgg_system.sequential_seconds_per_image
        )

    def test_slow_host_becomes_bottleneck(self):
        result = run_system(
            alexnet_architecture(),
            synthetic_model_workload("alexnet", seed=1),
            PAPER_CONFIG_ALEXNET,
            STRATIX_V_GXA7,
            host_ops_per_second=1e8,
        )
        assert not result.cpu_hidden
        assert result.bottleneck == "host"
        assert result.system_gops < result.fpga_gops

    def test_invalid_host_rate(self):
        with pytest.raises(ValueError):
            run_system(
                alexnet_architecture(),
                synthetic_model_workload("alexnet", seed=1),
                PAPER_CONFIG_ALEXNET,
                STRATIX_V_GXA7,
                host_ops_per_second=0,
            )
