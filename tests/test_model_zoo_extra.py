"""Tests for the extended model zoo (VGG19, CifarNet, LeNet)."""

import numpy as np
import pytest

from repro.nn.models import (
    available_models,
    cifarnet_architecture,
    get_architecture,
    lenet_architecture,
    vgg19_architecture,
)
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule


class TestVGG19:
    def test_registered(self):
        assert "vgg19" in available_models()

    def test_ops_exceed_vgg16(self):
        vgg19 = sum(s.dense_ops for s in vgg19_architecture().accelerated_specs())
        vgg16 = sum(
            s.dense_ops for s in get_architecture("vgg16").accelerated_specs()
        )
        assert vgg19 / 1e9 == pytest.approx(39.3, rel=0.02)
        assert vgg19 > vgg16

    def test_layer_count(self):
        specs = vgg19_architecture().accelerated_specs()
        assert len(specs) == 19  # 16 conv + 3 fc


class TestCifarNet:
    def test_full_size_inference(self, rng):
        network = cifarnet_architecture().build(seed=3)
        x = rng.normal(size=(3, 32, 32))
        out = network.forward(x)
        assert out.shape == (10, 1, 1)
        assert out.sum() == pytest.approx(1.0)

    def test_complete_abm_pipeline(self, rng):
        """The full prune/quantize/ABM flow runs at full size."""
        network = cifarnet_architecture().build(seed=3)
        x = rng.normal(size=(3, 32, 32))
        names = [l.name for l in network.accelerated_layers()]
        pipeline = QuantizedPipeline(network)
        pipeline.prune(uniform_schedule(names, 0.35).densities)
        pipeline.calibrate(x)
        pipeline.quantize()
        result = pipeline.run(x)
        reference = pipeline.run_float(x)
        assert int(np.argmax(result.output)) == int(np.argmax(reference))

    def test_uses_avg_pooling(self):
        network = cifarnet_architecture().build(seed=None)
        from repro.nn.layers import AvgPool2D

        assert isinstance(network.layer("pool2"), AvgPool2D)


class TestLeNet:
    def test_single_channel_input(self):
        arch = lenet_architecture()
        assert arch.input_channels == 1
        specs = {s.name: s for s in arch.accelerated_specs()}
        assert specs["conv1"].in_channels == 1
        assert specs["fc3"].in_channels == 50 * 4 * 4

    def test_inference_and_abm(self, rng):
        network = lenet_architecture().build(seed=5)
        x = rng.normal(size=(1, 28, 28))
        names = [l.name for l in network.accelerated_layers()]
        pipeline = QuantizedPipeline(network)
        pipeline.prune(uniform_schedule(names, 0.5).densities)
        pipeline.calibrate(x)
        pipeline.quantize()
        result = pipeline.run(x)
        assert result.output.shape == (10, 1, 1)
        assert result.multiply_ops < result.accumulate_ops

    def test_no_padding_geometry(self):
        specs = {s.name: s for s in lenet_architecture().accelerated_specs()}
        assert specs["conv1"].padding == 0
        assert (specs["conv1"].out_rows, specs["conv1"].out_cols) == (24, 24)


class TestZooUniformity:
    @pytest.mark.parametrize("name", ["alexnet", "vgg16", "vgg19", "cifarnet", "lenet"])
    def test_specs_consistent(self, name):
        """Every zoo model yields well-formed accelerated specs."""
        specs = get_architecture(name).accelerated_specs()
        assert specs
        for spec in specs:
            assert spec.macs > 0
            assert spec.weight_count > 0
            assert spec.dense_ops == 2 * spec.macs
