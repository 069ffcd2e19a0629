"""Tests for repro.quant.quantizer and repro.quant.stats."""

import numpy as np
import pytest

from repro.quant.fixed_point import QFormat
from repro.quant.quantizer import (
    ModelQuantizer,
    QuantizedTensor,
    codebook_histogram,
    quantization_error,
    quantize_tensor,
)
from repro.quant.stats import kernel_stats, per_output_channel_stats, summarize_layer


class TestQuantizedTensor:
    def test_rejects_float_codes(self):
        with pytest.raises(TypeError):
            QuantizedTensor(np.array([1.0, 2.0]), QFormat(8, 0))

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError):
            QuantizedTensor(np.array([300]), QFormat(8, 0))

    def test_dequantize(self):
        tensor = QuantizedTensor(np.array([4, -8]), QFormat(8, 2))
        assert tensor.dequantize().tolist() == [1.0, -2.0]

    def test_density(self):
        tensor = QuantizedTensor(np.array([0, 1, 0, 2]), QFormat(8, 0))
        assert tensor.density() == pytest.approx(0.5)

    def test_distinct_nonzero_values(self):
        tensor = QuantizedTensor(np.array([0, 3, 3, -1, 5]), QFormat(8, 0))
        assert tensor.distinct_nonzero_values().tolist() == [-1, 3, 5]


class TestQuantizeTensor:
    def test_auto_format_covers_range(self, rng):
        values = rng.normal(0, 2, size=100)
        tensor = quantize_tensor(values, total_bits=8)
        assert np.max(np.abs(tensor.dequantize() - values)) <= tensor.fmt.scale / 2 + 1e-12

    def test_explicit_format(self):
        fmt = QFormat(8, 0)
        tensor = quantize_tensor(np.array([1.4, 2.6]), fmt=fmt)
        assert tensor.codes.tolist() == [1, 3]

    def test_quantization_error_zero_on_exact(self):
        fmt = QFormat(8, 0)
        values = np.array([1.0, -3.0])
        assert quantization_error(values, quantize_tensor(values, fmt=fmt)) == 0.0


class TestModelQuantizer:
    def test_calibrate_then_quantize(self, rng):
        quantizer = ModelQuantizer()
        weights = rng.normal(0, 0.5, size=(4, 4))
        outputs = rng.normal(0, 3, size=(2, 5, 5))
        quantizer.calibrate_layer("conv1", weights, None, outputs)
        tensor = quantizer.quantize_weights("conv1", weights)
        assert tensor.fmt.total_bits == 8
        features = quantizer.quantize_features("conv1", outputs)
        assert features.fmt.total_bits == 8

    def test_uncalibrated_layer_raises(self):
        with pytest.raises(KeyError):
            ModelQuantizer().quantize_weights("nope", np.zeros((2, 2)))

    def test_codebook_histogram(self):
        fmt = QFormat(8, 0)
        tensors = [
            QuantizedTensor(np.array([1, 1, 2]), fmt),
            QuantizedTensor(np.array([2, 3]), fmt),
        ]
        histogram = codebook_histogram(tensors)
        assert histogram == {1: 2, 2: 2, 3: 1}


class TestKernelStats:
    def test_empty_kernel(self):
        stats = kernel_stats(np.zeros((2, 3, 3), dtype=np.int64))
        assert stats.nonzero_weights == 0
        assert stats.distinct_nonzero_values == 0
        assert stats.acc_to_mult_ratio == 0.0

    def test_counts(self):
        kernel = np.array([[[0, 2, 2], [0, -1, 0], [2, 0, 0]]])
        stats = kernel_stats(kernel)
        assert stats.total_weights == 9
        assert stats.nonzero_weights == 4
        assert stats.distinct_nonzero_values == 2
        assert stats.acc_to_mult_ratio == pytest.approx(2.0)

    def test_per_output_channel(self, rng):
        codes = rng.integers(-3, 4, size=(5, 2, 3, 3))
        stats = per_output_channel_stats(codes)
        assert len(stats) == 5
        for m, stat in enumerate(stats):
            assert stat.nonzero_weights == np.count_nonzero(codes[m])

    def test_rejects_flat_tensor(self):
        with pytest.raises(ValueError):
            per_output_channel_stats(np.array([1, 2, 3]))

    def test_summarize_layer(self, rng):
        codes = rng.integers(-3, 4, size=(6, 2, 3, 3))
        summary = summarize_layer(codes)
        assert summary.kernels == 6
        assert summary.total_weights == 6 * 18
        assert 0.0 <= summary.density <= 1.0
        assert summary.pruning_ratio == pytest.approx(1 - summary.density)
        assert summary.min_acc_to_mult_ratio <= summary.mean_acc_to_mult_ratio
