"""Tests for repro.quant.quantizer."""

import numpy as np
import pytest

from repro.quant.fixed_point import QFormat
from repro.quant.quantizer import QuantizedTensor


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
