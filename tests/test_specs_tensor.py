"""Tests for the low-level shape substrate (core.specs, nn.tensor)."""

import pytest

from repro.core.specs import conv_spec, fc_spec
from repro.core.specs import LayerSpec
from repro.nn.tensor import FeatureShape, conv_output_extent, pool_output_extent


class TestFeatureShape:
    def test_derived_sizes(self):
        shape = FeatureShape(3, 4, 5)
        assert shape.size == 60
        assert shape.as_tuple() == (3, 4, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FeatureShape(0, 4, 5)
        with pytest.raises(ValueError):
            FeatureShape(3, -1, 5)


class TestExtents:
    def test_conv_same_padding(self):
        assert conv_output_extent(224, 3, 1, 1) == 224

    def test_conv_strided(self):
        assert conv_output_extent(227, 11, 4, 0) == 55

    def test_conv_too_small(self):
        with pytest.raises(ValueError):
            conv_output_extent(2, 5, 1, 0)

    def test_pool_ceil_mode(self):
        assert pool_output_extent(55, 3, 2) == 27
        assert pool_output_extent(13, 3, 2) == 6
        assert pool_output_extent(224, 2, 2) == 112
        # Caffe's rule: with stride > kernel, no window starts past the edge.
        assert pool_output_extent(2, 1, 2) == 1
        assert pool_output_extent(5, 2, 4) == 2
        assert pool_output_extent(4, 2, 4) == 1

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            pool_output_extent(2, 3, 2)


class TestLayerSpec:
    def test_conv_derived_counts(self, small_conv_spec):
        spec = small_conv_spec
        assert spec.weights_per_kernel == 16 * 9
        assert spec.kernel_count == 8 * 10 * 10
        assert spec.weight_count == 8 * 16 * 9
        assert spec.macs == spec.kernel_count * spec.weights_per_kernel
        assert spec.dense_ops == 2 * spec.macs
        assert spec.weight_shape() == (8, 16, 3, 3)

    def test_grouped_spec(self):
        spec = conv_spec("g", 8, 6, kernel=3, in_rows=8, in_cols=8, padding=1, groups=2)
        assert spec.weights_per_kernel == 4 * 9
        assert spec.weight_count == 6 * 4 * 9

    def test_fc_spec_is_1x1_conv(self, small_fc_spec):
        spec = small_fc_spec
        assert spec.is_fc
        assert spec.kernel == 1
        assert spec.output_pixels == 1
        assert spec.macs == 128 * 32
        assert spec.input_size == 128

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            LayerSpec(
                name="x", kind="pool", in_channels=1, out_channels=1, kernel=1,
                stride=1, padding=0, groups=1, in_rows=1, in_cols=1,
                out_rows=1, out_cols=1,
            )

    def test_group_divisibility(self):
        with pytest.raises(ValueError):
            conv_spec("g", 3, 6, kernel=3, in_rows=8, in_cols=8, groups=2)

    def test_nonpositive_dims(self):
        with pytest.raises(ValueError):
            conv_spec("x", 3, 4, kernel=9, in_rows=4, in_cols=4)

