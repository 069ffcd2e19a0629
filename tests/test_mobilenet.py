"""Tests for depthwise-separable convolutions through the whole stack."""

import numpy as np
import pytest

from repro.dse.performance import share_factor_from_workloads
from repro.hw.workload import ModelWorkload, workload_from_encoded
from repro.nn.models import mobilenet_tiny_architecture
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule


@pytest.fixture(scope="module")
def architecture():
    return mobilenet_tiny_architecture()


class TestDepthwiseSpecs:
    def test_depthwise_groups_equal_channels(self, architecture):
        specs = {s.name: s for s in architecture.accelerated_specs()}
        dw1 = specs["dw1"]
        assert dw1.groups == dw1.in_channels == dw1.out_channels == 16
        assert dw1.weights_per_kernel == 9  # one 3x3 filter per channel

    def test_pointwise_follows(self, architecture):
        specs = {s.name: s for s in architecture.accelerated_specs()}
        pw1 = specs["pw1"]
        assert pw1.kernel == 1
        assert pw1.groups == 1
        assert pw1.in_channels == 16
        assert pw1.out_channels == 32

    def test_depthwise_dominates_intensity_floor(self, architecture, rng):
        """The tiny 9-weight depthwise kernels set the minimum Acc/Mult
        ratio — hence the sharing factor N for this model class."""
        from repro.workloads.synthetic import synthetic_layer_workload

        layers = []
        for spec in architecture.accelerated_specs():
            layers.append(synthetic_layer_workload(spec, 0.6, 8, rng))
        workload = ModelWorkload(name="mb", layers=tuple(layers))
        ratios = {
            layer.spec.name: layer.accumulate_ops / max(layer.multiply_ops, 1)
            for layer in workload.layers
        }
        floor_layer = min(ratios, key=ratios.get)
        assert floor_layer.startswith("dw")
        assert share_factor_from_workloads(workload.layers) <= 4


class TestDepthwiseExecution:
    def test_forward(self, architecture, rng):
        network = architecture.build(seed=2)
        out = network.forward(rng.normal(size=(3, 32, 32)))
        assert out.shape == (10, 1, 1)
        assert out.sum() == pytest.approx(1.0)

    def test_abm_pipeline_bit_exact_on_depthwise(self, architecture, rng):
        network = architecture.build(seed=2)
        x = rng.normal(size=(3, 32, 32))
        names = [layer.name for layer in network.accelerated_layers()]
        pipeline = QuantizedPipeline(network)
        pipeline.prune(uniform_schedule(names, 0.6).densities)
        pipeline.calibrate(x)
        pipeline.quantize()
        result = pipeline.run(x)
        reference = pipeline.run_float(x)
        assert int(np.argmax(result.output)) == int(np.argmax(reference))

    def test_deploys_and_simulates(self, architecture, rng):
        from repro.deploy import deploy

        network = architecture.build(seed=2)
        x = rng.normal(size=(3, 32, 32))
        names = [layer.name for layer in network.accelerated_layers()]
        pipeline = QuantizedPipeline(network)
        pipeline.prune(uniform_schedule(names, 0.6).densities)
        pipeline.calibrate(x)
        pipeline.quantize()
        deployed = deploy(pipeline, architecture.accelerated_specs())
        simulation = deployed.simulate()
        assert simulation.throughput_gops > 0
        # Depthwise layers simulate too (9-weight kernels, many channels).
        (dw,) = [layer for layer in simulation.layers if layer.layer == "dw1"]
        assert dw.accumulate_ops > 0

    def test_scaling_keeps_depthwise_consistent(self, architecture):
        network = architecture.build(scale=0.5, seed=None)
        dw = network.layer("dw2")
        assert dw.groups == dw.in_channels == dw.out_channels
