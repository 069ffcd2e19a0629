"""Tests for genuinely batched execution across every stack level.

Batching stacks the batch dimension into the compiled plans' pixel axis
(kernels), folds it into one matmul (float conv/FC) or one vectorized
array op (pool/LRN/softmax). Integer/quantized execution must be
*bit-exact* against the per-image path; float matmul layers are allowed
ulp-level BLAS summation-order differences.
"""

import numpy as np
import pytest

from repro.core.abm import ConvGeometry, abm_conv2d_batch, abm_conv2d_reference
from repro.core.encoding import encode_layer
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from tests.conftest import sparse_weight_codes


class TestBatchedKernel:
    """A batch of B vs B batches of one: bit-exact, B x op counts."""

    @pytest.mark.parametrize(
        "stride,padding,groups",
        [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2)],
    )
    def test_batch_matches_per_image(self, rng, stride, padding, groups):
        batch_size = 4
        weights = sparse_weight_codes(rng, shape=(6, 8 // groups, 3, 3))
        batch = rng.integers(-128, 128, size=(batch_size, 8, 9, 9))
        bias = rng.integers(-200, 200, size=6)
        geometry = ConvGeometry(kernel=3, stride=stride, padding=padding, groups=groups)
        encoded = encode_layer("b", weights)
        batched = abm_conv2d_batch(batch, encoded, geometry, bias_codes=bias)
        singles = [
            abm_conv2d_batch(batch[i : i + 1], encoded, geometry, bias_codes=bias)
            for i in range(batch_size)
        ]
        assert np.array_equal(batched.output, np.concatenate([s.output for s in singles]))
        assert batched.accumulate_ops == batch_size * singles[0].accumulate_ops
        assert batched.multiply_ops == batch_size * singles[0].multiply_ops

    def test_batch_of_one(self, rng):
        weights = sparse_weight_codes(rng, shape=(4, 3, 3, 3))
        image = rng.integers(-64, 64, size=(3, 7, 7))
        geometry = ConvGeometry(kernel=3, padding=1)
        encoded = encode_layer("b1", weights)
        batched = abm_conv2d_batch(image[None], encoded, geometry)
        single = abm_conv2d_reference(image, encoded, geometry)
        assert np.array_equal(batched.output[0], single.output)
        assert batched.accumulate_ops == single.accumulate_ops
        assert batched.multiply_ops == single.multiply_ops

    def test_fc_batch_matches_per_image(self, rng):
        weights = sparse_weight_codes(rng, shape=(10, 32, 1, 1), density=0.2)
        batch = rng.integers(-128, 128, size=(5, 32))
        bias = rng.integers(-50, 50, size=10)
        encoded = encode_layer("fcb", weights)
        fc = ConvGeometry(kernel=1)
        batched = abm_conv2d_batch(batch[:, :, None, None], encoded, fc, bias_codes=bias)
        assert batched.output.shape == (5, 10, 1, 1)
        for i in range(5):
            single = abm_conv2d_batch(
                batch[i : i + 1, :, None, None], encoded, fc, bias_codes=bias
            )
            assert np.array_equal(batched.output[i], single.output[0])

    def test_rejects_non_bchw(self, rng):
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        encoded = encode_layer("e", weights)
        with pytest.raises(ValueError):
            abm_conv2d_batch(
                rng.integers(0, 2, size=(2, 5, 5)), encoded, ConvGeometry(kernel=3)
            )


class TestBatchedLayers:
    """Every layer's forward_batch vs stacked per-image forward."""

    @pytest.fixture
    def network(self, tiny_architecture):
        return tiny_architecture.build(seed=3)

    def test_each_layer_matches_per_image(self, network, rng):
        batch = rng.normal(size=(3,) + network.input_shape.as_tuple())
        value = batch
        for layer in network.layers:
            batched = layer.forward_batch(value)
            stacked = np.stack([layer.forward(value[i]) for i in range(len(value))])
            assert batched.shape == stacked.shape, layer.name
            np.testing.assert_allclose(
                batched, stacked, rtol=1e-12, atol=1e-12, err_msg=layer.name
            )
            value = batched

    def test_network_forward_batch(self, network, rng):
        batch = rng.normal(size=(4,) + network.input_shape.as_tuple())
        batched = network.forward_batch(batch)
        singles = np.stack([network.forward(batch[i]) for i in range(4)])
        np.testing.assert_allclose(batched, singles, rtol=1e-9, atol=1e-12)

    def test_network_forward_batch_validates_shape(self, network, rng):
        with pytest.raises(ValueError):
            network.forward_batch(rng.normal(size=network.input_shape.as_tuple()))

    def test_integer_layers_bit_exact(self, network, rng):
        """Pool/ReLU/flatten on integer codes must match exactly."""
        codes = rng.integers(-128, 128, size=(3, 4, 8, 8))
        for layer in network.layers:
            if type(layer).__name__ in ("MaxPool2D", "ReLU"):
                batched = layer.forward_batch(codes)
                stacked = np.stack([layer.forward(codes[i]) for i in range(3)])
                assert np.array_equal(batched, stacked), layer.name


class TestBatchedPipeline:
    """QuantizedPipeline.run_batch: bit-exact, identical per-image stats."""

    @pytest.fixture
    def pipeline(self, tiny_architecture):
        rng = np.random.default_rng(77)
        network = tiny_architecture.build(seed=4)
        image = rng.normal(size=network.input_shape.as_tuple())
        names = [layer.name for layer in network.accelerated_layers()]
        pipeline = QuantizedPipeline(network)
        pipeline.prune(uniform_schedule(names, 0.4).densities)
        pipeline.calibrate(image)
        pipeline.quantize()
        return pipeline

    def test_run_batch_matches_run(self, pipeline):
        rng = np.random.default_rng(5)
        shape = pipeline.network.input_shape.as_tuple()
        images = rng.normal(size=(3,) + shape)
        batch_results = pipeline.run_batch(images)
        assert len(batch_results) == 3
        for i, result in enumerate(batch_results):
            single = pipeline.run(images[i])
            assert np.array_equal(result.output, single.output)
            assert result.accumulate_ops == single.accumulate_ops
            assert result.multiply_ops == single.multiply_ops
            for bs, ss in zip(result.layer_stats, single.layer_stats):
                assert bs.accumulate_ops == ss.accumulate_ops
                assert bs.multiply_ops == ss.multiply_ops
