"""Tests for the CNN layer substrate (repro.nn.layers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dropout,
    Flatten,
    FullyConnected,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
    im2col,
)
from repro.nn.tensor import FeatureShape


def naive_conv(features, weights, bias, stride, padding, groups):
    """Straightforward loop convolution used as the oracle."""
    channels, rows, cols = features.shape
    m, gin, k, _ = weights.shape
    padded = np.pad(features, ((0, 0), (padding, padding), (padding, padding)))
    out_rows = (rows + 2 * padding - k) // stride + 1
    out_cols = (cols + 2 * padding - k) // stride + 1
    group_out = m // groups
    out = np.zeros((m, out_rows, out_cols))
    for mm in range(m):
        g = mm // group_out
        for r in range(out_rows):
            for c in range(out_cols):
                window = padded[
                    g * gin : (g + 1) * gin,
                    r * stride : r * stride + k,
                    c * stride : c * stride + k,
                ]
                out[mm, r, c] = np.sum(window * weights[mm]) + bias[mm]
    return out


class TestIm2col:
    def test_shape(self, rng):
        features = rng.normal(size=(3, 8, 8))
        patches = im2col(features, kernel=3, stride=1, padding=1)
        assert patches.shape == (64, 27)

    def test_column_order_is_n_k_k(self, rng):
        """Columns follow the paper's (n, k, k') packed-index order."""
        features = rng.normal(size=(2, 4, 4))
        patches = im2col(features, kernel=2, stride=1, padding=0)
        # First output pixel window, flattened manually:
        expected = features[:, 0:2, 0:2].reshape(-1)
        assert np.allclose(patches[0], expected)

    def test_stride(self, rng):
        features = rng.normal(size=(1, 6, 6))
        patches = im2col(features, kernel=2, stride=2, padding=0)
        assert patches.shape == (9, 4)


class TestConv2D:
    @pytest.mark.parametrize(
        "stride,padding,groups",
        [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 0, 2)],
    )
    def test_matches_naive(self, rng, stride, padding, groups):
        conv = Conv2D("c", 4, 6, kernel=3, stride=stride, padding=padding, groups=groups)
        conv.weights = rng.normal(size=conv.weights.shape)
        conv.bias[:] = rng.normal(size=6)
        features = rng.normal(size=(4, 9, 9))
        expected = naive_conv(features, conv.weights, conv.bias, stride, padding, groups)
        assert np.allclose(conv.forward(features), expected)

    def test_output_shape(self):
        conv = Conv2D("c", 3, 8, kernel=3, stride=1, padding=1)
        shape = conv.output_shape(FeatureShape(3, 16, 16))
        assert shape.as_tuple() == (8, 16, 16)

    def test_channel_mismatch_raises(self):
        conv = Conv2D("c", 3, 8, kernel=3)
        with pytest.raises(ValueError):
            conv.output_shape(FeatureShape(4, 16, 16))

    def test_bad_group_division(self):
        with pytest.raises(ValueError):
            Conv2D("c", 3, 8, kernel=3, groups=2)

    def test_weight_shape_enforced(self):
        conv = Conv2D("c", 3, 8, kernel=3)
        with pytest.raises(ValueError):
            conv.weights = np.zeros((8, 3, 5, 5))

    def test_operation_count(self):
        conv = Conv2D("c", 3, 8, kernel=3, padding=1)
        ops = conv.operation_count(FeatureShape(3, 4, 4))
        assert ops == 2 * 3 * 9 * 8 * 16

    def test_runs_on_accelerator(self):
        assert Conv2D("c", 3, 8, kernel=3).runs_on_accelerator


class TestFullyConnected:
    def test_matches_matmul(self, rng):
        fc = FullyConnected("fc", 12, 5)
        fc.weights = rng.normal(size=(5, 12))
        fc.bias[:] = rng.normal(size=5)
        features = rng.normal(size=(3, 2, 2))
        expected = fc.weights @ features.reshape(-1) + fc.bias
        assert np.allclose(fc.forward(features).reshape(-1), expected)

    def test_as_conv_weights_shape(self):
        fc = FullyConnected("fc", 12, 5)
        assert fc.as_conv_weights().shape == (5, 12, 1, 1)

    def test_wrong_input_size(self):
        fc = FullyConnected("fc", 12, 5)
        with pytest.raises(ValueError):
            fc.forward(np.zeros((13,)))

    def test_operation_count(self):
        fc = FullyConnected("fc", 12, 5)
        assert fc.operation_count(FeatureShape(12, 1, 1)) == 2 * 12 * 5


class TestPooling:
    def test_max_pool_basic(self):
        pool = MaxPool2D("p", kernel=2, stride=2)
        features = np.arange(16).reshape(1, 4, 4).astype(float)
        out = pool.forward(features)
        assert out.shape == (1, 2, 2)
        assert out[0].tolist() == [[5, 7], [13, 15]]

    def test_alexnet_ceil_mode_shapes(self):
        """55 -> 27 -> 13 -> 6 with 3x3/stride-2 overlapping pooling."""
        pool = MaxPool2D("p", kernel=3, stride=2)
        shape = FeatureShape(1, 55, 55)
        shape = pool.output_shape(shape)
        assert (shape.rows, shape.cols) == (27, 27)
        assert pool.output_shape(FeatureShape(1, 27, 27)).rows == 13
        assert pool.output_shape(FeatureShape(1, 13, 13)).rows == 6

    def test_max_pool_tail_window(self, rng):
        """Ceil-mode tail windows must not invent -inf values."""
        pool = MaxPool2D("p", kernel=3, stride=2)
        features = rng.normal(size=(2, 7, 7))
        out = pool.forward(features)
        assert np.all(np.isfinite(out))
        assert out.shape == (2, 3, 3)

    @given(
        kernel=st.integers(1, 4),
        stride=st.integers(1, 4),
        extra_rows=st.integers(0, 6),
        extra_cols=st.integers(0, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_window_holds_a_real_pixel(self, kernel, stride, extra_rows, extra_cols):
        """Ceil mode may overhang the edge but never pools padding alone."""
        rows, cols = kernel + extra_rows, kernel + extra_cols
        shape = MaxPool2D("m", kernel, stride).output_shape(FeatureShape(1, rows, cols))
        assert (shape.rows - 1) * stride < rows
        assert (shape.cols - 1) * stride < cols
        features = -np.arange(2 * rows * cols, dtype=float).reshape(1, 2, rows, cols)
        maxed = MaxPool2D("m", kernel, stride).forward_batch(features)
        averaged = AvgPool2D("a", kernel, stride).forward_batch(features)
        assert maxed.shape == averaged.shape == (1, 2, shape.rows, shape.cols)
        assert np.isfinite(maxed).all() and np.isfinite(averaged).all()

    def test_avg_pool_counts_only_real_pixels(self):
        pool = AvgPool2D("p", kernel=2, stride=2)
        features = np.ones((1, 4, 4))
        assert np.allclose(pool.forward(features), 1.0)

    def test_avg_pool_values(self):
        pool = AvgPool2D("p", kernel=2, stride=2)
        features = np.arange(16, dtype=float).reshape(1, 4, 4)
        assert pool.forward(features)[0, 0, 0] == pytest.approx(2.5)


class TestElementwise:
    def test_relu(self):
        out = ReLU("r").forward(np.array([[[-1.0, 2.0]]]))
        assert out.tolist() == [[[0.0, 2.0]]]

    def test_dropout_is_identity(self, rng):
        features = rng.normal(size=(2, 3, 3))
        assert np.array_equal(Dropout("d").forward(features), features)

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout("d", rate=1.0)

    def test_flatten(self, rng):
        features = rng.normal(size=(2, 3, 3))
        out = Flatten("f").forward(features)
        assert out.shape == (18, 1, 1)
        assert np.array_equal(out.reshape(2, 3, 3), features)


class TestLRN:
    def test_matches_naive(self, rng):
        lrn = LocalResponseNorm("n", local_size=5, alpha=1e-4, beta=0.75, k=1.0)
        features = rng.normal(size=(8, 4, 4))
        out = lrn.forward(features)
        # Naive per-channel windowed implementation.
        for c in range(8):
            lo, hi = max(0, c - 2), min(8, c + 3)
            denominator = (1.0 + (1e-4 / 5) * np.sum(features[lo:hi] ** 2, axis=0)) ** 0.75
            assert np.allclose(out[c], features[c] / denominator)

    def test_rejects_even_window(self):
        with pytest.raises(ValueError):
            LocalResponseNorm("n", local_size=4)


class TestSoftmax:
    def test_sums_to_one(self, rng):
        out = Softmax("s").forward(rng.normal(size=(10, 1, 1)))
        assert out.sum() == pytest.approx(1.0)

    def test_stable_for_large_logits(self):
        out = Softmax("s").forward(np.array([1000.0, 1001.0]).reshape(2, 1, 1))
        assert np.all(np.isfinite(out))
        assert out[1] > out[0]
