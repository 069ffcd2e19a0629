"""Tests for the ABM-SpConv core algorithm (Equation 2 exactness)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.abm import ConvGeometry, abm_conv2d, abm_conv2d_reference
from repro.core.encoding import encode_layer
from tests.conftest import direct_conv, sparse_weight_codes


def abm_from_codes(features, weights, geometry, bias=None):
    return abm_conv2d(features, encode_layer("t", weights), geometry, bias_codes=bias)


class TestEquivalence:
    """The factorization must be bit-exact against direct convolution."""

    @pytest.mark.parametrize(
        "stride,padding,groups",
        [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 0, 2)],
    )
    def test_vectorized_matches_direct(self, rng, stride, padding, groups):
        weights = sparse_weight_codes(rng, shape=(6, 8 // groups, 3, 3))
        features = rng.integers(-128, 128, size=(8, 9, 9))
        geometry = ConvGeometry(kernel=3, stride=stride, padding=padding, groups=groups)
        encoded = encode_layer("t", weights)
        result = abm_conv2d(features, encoded, geometry)
        expected = direct_conv(features, weights, geometry)
        assert np.array_equal(result.output, expected)

    def test_reference_matches_vectorized(self, rng):
        weights = sparse_weight_codes(rng, shape=(4, 5, 3, 3))
        features = rng.integers(-128, 128, size=(5, 7, 7))
        geometry = ConvGeometry(kernel=3, padding=1)
        encoded = encode_layer("t", weights)
        ref = abm_conv2d_reference(features, encoded, geometry)
        fast = abm_conv2d(features, encoded, geometry)
        assert np.array_equal(ref.output, fast.output)
        assert ref.accumulate_ops == fast.accumulate_ops
        assert ref.multiply_ops == fast.multiply_ops

    def test_bias_applied_once_per_output(self, rng):
        weights = sparse_weight_codes(rng, shape=(3, 4, 3, 3))
        features = rng.integers(-16, 16, size=(4, 6, 6))
        bias = rng.integers(-100, 100, size=3)
        geometry = ConvGeometry(kernel=3)
        out = abm_from_codes(features, weights, geometry, bias=bias)
        expected = direct_conv(features, weights, geometry, bias=bias)
        assert np.array_equal(out.output, expected)

    def test_fc_path(self, rng):
        weights = sparse_weight_codes(rng, shape=(10, 32, 1, 1), density=0.2)
        features = rng.integers(-128, 128, size=32)
        encoded = encode_layer("fc", weights)
        result = abm_conv2d(features.reshape(-1, 1, 1), encoded, ConvGeometry(kernel=1))
        expected = weights.reshape(10, 32).astype(np.int64) @ features
        assert np.array_equal(result.output.reshape(-1), expected)

    @given(
        hnp.arrays(
            dtype=np.int64,
            shape=(3, 2, 2, 2),
            elements=st.integers(-8, 8),
        ),
        hnp.arrays(
            dtype=np.int64,
            shape=(2, 5, 5),
            elements=st.integers(-128, 127),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_equivalence_property(self, weights, features):
        """Equation 2 holds for arbitrary integer tensors."""
        geometry = ConvGeometry(kernel=2)
        result = abm_from_codes(features, weights, geometry)
        expected = direct_conv(features, weights, geometry)
        assert np.array_equal(result.output, expected)


class TestOpCounts:
    def test_counts_follow_encoding(self, rng):
        weights = sparse_weight_codes(rng, shape=(4, 6, 3, 3))
        features = rng.integers(-8, 8, size=(6, 8, 8))
        geometry = ConvGeometry(kernel=3, padding=1)
        encoded = encode_layer("t", weights)
        result = abm_conv2d(features, encoded, geometry)
        pixels = 8 * 8
        assert result.accumulate_ops == encoded.nonzero_count * pixels
        distinct = sum(k.distinct_values for k in encoded.kernels)
        assert result.multiply_ops == distinct * pixels

    def test_dense_worstcase_reduces_to_distinct_values(self, rng):
        """Even a fully dense kernel multiplies only once per distinct value."""
        weights = np.full((1, 4, 3, 3), 5, dtype=np.int64)
        features = rng.integers(-8, 8, size=(4, 5, 5))
        result = abm_from_codes(features, weights, ConvGeometry(kernel=3))
        pixels = 3 * 3
        assert result.multiply_ops == 1 * pixels  # one distinct value
        assert result.accumulate_ops == 36 * pixels

    def test_acc_to_mult_ratio(self, rng):
        weights = sparse_weight_codes(rng, shape=(2, 8, 3, 3), density=0.5)
        features = rng.integers(-8, 8, size=(8, 6, 6))
        result = abm_from_codes(features, weights, ConvGeometry(kernel=3))
        if result.multiply_ops:
            assert result.acc_to_mult_ratio == pytest.approx(
                result.accumulate_ops / result.multiply_ops
            )

    def test_all_zero_weights(self, rng):
        weights = np.zeros((2, 3, 3, 3), dtype=np.int64)
        features = rng.integers(-8, 8, size=(3, 5, 5))
        result = abm_from_codes(features, weights, ConvGeometry(kernel=3))
        assert result.accumulate_ops == 0
        assert result.multiply_ops == 0
        assert not np.any(result.output)


class TestValidation:
    def test_rejects_float_features(self, weight_codes, small_geometry):
        encoded = encode_layer("t", weight_codes)
        with pytest.raises(TypeError):
            abm_conv2d(np.zeros((16, 10, 10)), encoded, small_geometry)

    def test_rejects_2d_features(self, weight_codes, small_geometry):
        encoded = encode_layer("t", weight_codes)
        with pytest.raises(ValueError):
            abm_conv2d(np.zeros((10, 10), dtype=np.int64), encoded, small_geometry)

    def test_rejects_bad_group_division(self, rng):
        weights = sparse_weight_codes(rng, shape=(3, 4, 3, 3))
        features = rng.integers(-8, 8, size=(4, 6, 6))
        encoded = encode_layer("t", weights)
        with pytest.raises(ValueError):
            abm_conv2d(features, encoded, ConvGeometry(kernel=3, groups=2))

    def test_rejects_oversized_kernel(self, rng):
        weights = sparse_weight_codes(rng, shape=(2, 3, 3, 3))
        features = rng.integers(-8, 8, size=(3, 2, 2))
        encoded = encode_layer("t", weights)
        with pytest.raises(ValueError):
            abm_conv2d(features, encoded, ConvGeometry(kernel=3))
