"""End-to-end tests of the quantized ABM inference pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.abm import ConvGeometry
from repro.core.encoding import encode_layer
from repro.nn.layers import Conv2D, Flatten, FullyConnected
from repro.nn.network import Network
from repro.nn.tensor import FeatureShape
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import deep_compression_schedule, uniform_schedule
from repro.quant.clustering import cluster_weights
from repro.quant.fixed_point import fit_qformat
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_the_layer(self, image, bad):
        network, x = image
        pipeline = QuantizedPipeline(network)
        pipeline.calibrate(x)
        network.layer("fc3").weights[2, 5] = bad
        with pytest.raises(ValueError, match="layer 'fc3'.*non-finite"):
            pipeline.quantize()

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
        from repro.core.abm import abm_conv2d

        abm = abm_conv2d(input_codes, compiled.encoded, geometry)
        assert np.array_equal(abm.output, direct)

    def test_relu_and_maxpool_exact_in_integer(self, image):
        """Integer-domain host layers commute with dequantization."""
        network, x = image
        pipeline = build_pipeline(network, x)
        result = pipeline.run(x)
        assert np.all(result.output >= 0)  # softmax probabilities
        assert result.output.sum() == pytest.approx(1.0, abs=0.05)


@st.composite
def coded_weights(draw, shape):
    """Weights on a quarter-LSB grid of a drawn format: steps of +-1 round to
    code 0, steps of 2 (mod 4) are exact +-(k + 1/2) LSB ties, and a peak
    of 508 steps (127 LSB) pins the fitted format to the grid's."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.integers(-508, 509, size=shape)
    small = rng.random(shape) < draw(st.floats(0.0, 0.5))
    steps[small] = rng.choice([-2, -1, 1, 2], size=int(small.sum()))
    steps[rng.random(shape) >= draw(st.floats(0.0, 1.0))] = 0
    steps[rng.random(shape[0]) < draw(st.floats(0.0, 0.5))] = 0  # all-zero kernels
    if draw(st.booleans()):
        steps.flat[draw(st.integers(0, steps.size - 1))] = draw(st.sampled_from([-508, 508]))
    if draw(st.integers(0, 9)) == 0:
        steps[...] = 0  # an all-zero layer
    return steps * 2.0 ** -(draw(st.integers(-2, 8)) + 2)


class TestSparseQuantize:
    """quantize() touches only the nonzero weights; it must equal fitting,
    rounding and encoding the dense tensor."""

    @given(
        st.sampled_from([1, 3]),
        st.sampled_from([1, 2]),
        st.data(),
        st.none() | st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_formula(self, kernel, groups, data, clusters):
        conv = Conv2D("conv", 4, 6, kernel, padding=kernel // 2, groups=groups)
        fc = FullyConnected("fc", 6 * 5 * 5, 7)
        conv.weights = data.draw(coded_weights(conv.weights.shape))
        fc.weights = data.draw(coded_weights(fc.weights.shape))
        network = Network("sparse", FeatureShape(4, 5, 5), [conv, Flatten("flatten"), fc])
        pipeline = QuantizedPipeline(network, weight_clusters=clusters)
        pipeline.calibrate(np.random.default_rng(0).normal(size=(4, 5, 5)))
        pipeline.quantize()
        for layer in (conv, fc):
            weights = layer.weights
            if clusters is not None:
                weights = cluster_weights(weights, clusters).dense()
            fmt = fit_qformat(weights, 8)
            want = encode_layer(layer.name, fmt.quantize(weights))
            got = pipeline.compiled[layer.name]
            assert got.weight_fmt == fmt
            assert got.encoded.kernel_shape == want.kernel_shape
            for stream in (
                "indices", "qtable_values", "qtable_counts", "stream_offsets", "qtable_offsets"
            ):
                assert np.array_equal(getattr(got.encoded, stream), getattr(want, stream)), stream


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
