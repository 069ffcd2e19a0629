"""End-to-end tests of the quantized ABM inference pipeline."""

import numpy as np
import pytest

from repro.core import ConvGeometry
from repro.pipeline import QuantizedPipeline
from repro.prune import deep_compression_schedule, uniform_schedule
from tests.conftest import direct_conv


@pytest.fixture
def image(tiny_architecture, rng):
    network = tiny_architecture.build(seed=2)
    return network, rng.normal(0, 1, size=network.input_shape.as_tuple())


def build_pipeline(network, image, densities=None):
    pipeline = QuantizedPipeline(network)
    if densities:
        pipeline.prune(densities)
    pipeline.calibrate(image)
    pipeline.quantize()
    return pipeline


class TestFlowStages:
    def test_quantize_requires_calibration(self, image):
        network, _ = image
        with pytest.raises(RuntimeError):
            QuantizedPipeline(network).quantize()

    def test_run_requires_quantize(self, image):
        network, x = image
        pipeline = QuantizedPipeline(network)
        pipeline.calibrate(x)
        with pytest.raises(RuntimeError):
            pipeline.run(x)

    def test_run_batch_requires_calibration(self, image):
        """The error names the missing step, not a generic 'not ready'."""
        network, x = image
        with pytest.raises(RuntimeError, match=r"not calibrated.*calibrate\(\).*run_batch\(\)"):
            QuantizedPipeline(network).run_batch(x[None])

    def test_run_batch_requires_quantize(self, image):
        network, x = image
        pipeline = QuantizedPipeline(network)
        pipeline.calibrate(x)
        with pytest.raises(RuntimeError, match=r"not quantized.*quantize\(\).*run_batch\(\)"):
            pipeline.run_batch(x[None])

    def test_run_batch_reference_requires_quantize(self, image):
        network, x = image
        pipeline = QuantizedPipeline(network)
        pipeline.calibrate(x)
        with pytest.raises(
            RuntimeError, match=r"not quantized.*quantize\(\).*run_batch_reference\(\)"
        ):
            pipeline.run_batch_reference(x[None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["run_batch", "run_batch_reference"])
    def test_non_finite_pixels_rejected(self, image, bad, method):
        """A NaN would quantize outside input_fmt and break the exactness
        proof; the batch entry points refuse it instead of running."""
        network, x = image
        pipeline = build_pipeline(network, x)
        batch = np.stack([x, x])
        batch[1, 0, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            getattr(pipeline, method)(batch)

    def test_all_accelerated_layers_compiled(self, image):
        network, x = image
        pipeline = build_pipeline(network, x)
        compiled = set(pipeline.compiled)
        expected = {layer.name for layer in network.accelerated_layers()}
        assert compiled == expected


class TestNumerics:
    def test_top1_matches_float(self, image):
        network, x = image
        names = [l.name for l in network.accelerated_layers()]
        pipeline = build_pipeline(network, x, uniform_schedule(names, 0.4).densities)
        quantized = pipeline.run(x)
        reference = pipeline.run_float(x)
        assert int(np.argmax(quantized.output)) == int(np.argmax(reference))

    def test_outputs_close_to_float(self, image):
        network, x = image
        pipeline = build_pipeline(network, x)
        quantized = pipeline.run(x)
        reference = pipeline.run_float(x)
        # Softmax outputs: 8-bit activations keep probabilities within a few %.
        assert np.max(np.abs(quantized.output - reference)) < 0.1

    def test_first_conv_is_exact_integer_conv(self, image):
        """The ABM stage must equal direct integer convolution exactly."""
        network, x = image
        pipeline = build_pipeline(network, x)
        compiled = pipeline.compiled["conv1"]
        input_codes = pipeline.input_fmt.quantize(x)
        from repro.core.encoding import decode_layer

        weight_codes = decode_layer(compiled.encoded)
        geometry = ConvGeometry(kernel=3, padding=1)
        direct = direct_conv(input_codes, weight_codes, geometry)
        from repro.core import abm_conv2d

        abm = abm_conv2d(input_codes, compiled.encoded, geometry)
        assert np.array_equal(abm.output, direct)

    def test_relu_and_maxpool_exact_in_integer(self, image):
        """Integer-domain host layers commute with dequantization."""
        network, x = image
        pipeline = build_pipeline(network, x)
        result = pipeline.run(x)
        assert np.all(result.output >= 0)  # softmax probabilities
        assert result.output.sum() == pytest.approx(1.0, abs=0.05)


class TestOpAccounting:
    def test_stats_reflect_pruning(self, image):
        network, x = image
        names = [l.name for l in network.accelerated_layers()]
        dense_pipeline = build_pipeline(network, x)
        dense_ops = dense_pipeline.run(x).accumulate_ops

        network2 = type(network)(network.name, network.input_shape, network.layers)
        pruned_pipeline = build_pipeline(
            network2, x, uniform_schedule(names, 0.25).densities
        )
        pruned_ops = pruned_pipeline.run(x).accumulate_ops
        assert pruned_ops < 0.35 * dense_ops

    def test_stats_per_layer(self, image):
        network, x = image
        pipeline = build_pipeline(network, x)
        result = pipeline.run(x)
        names = [stats.name for stats in result.layer_stats]
        assert names == [l.name for l in network.accelerated_layers()]
        for stats in result.layer_stats:
            assert stats.multiply_ops <= stats.accumulate_ops or stats.accumulate_ops == 0

    def test_encoded_bytes_positive_and_consistent(self, image):
        network, x = image
        pipeline = build_pipeline(network, x)
        assert pipeline.encoded_bytes() == sum(
            e.encoded_bytes for e in pipeline.encoded_layers()
        )
        assert pipeline.encoded_bytes() > 0

    def test_quantized_weights_view(self, image):
        network, x = image
        pipeline = build_pipeline(network, x)
        tensor = pipeline.quantized_weights("conv1")
        assert tensor.shape == network.layer("conv1").weights.shape


class TestDeepCompressionIntegration:
    def test_alexnet_schedule_on_scaled_model(self, rng):
        from repro.nn.models import alexnet_architecture

        network = alexnet_architecture().build(scale=0.08, spatial_scale=0.35, seed=4)
        x = rng.normal(size=network.input_shape.as_tuple())
        pipeline = build_pipeline(
            network, x, deep_compression_schedule("alexnet").densities
        )
        result = pipeline.run(x)
        reference = pipeline.run_float(x)
        assert int(np.argmax(result.output)) == int(np.argmax(reference))
        # ABM multiplies far fewer than accumulates on a pruned model.
        assert result.multiply_ops < result.accumulate_ops
