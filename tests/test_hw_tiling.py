"""Tests for prefetch-window planning."""

import pytest

from repro.core.specs import conv_spec, fc_spec
from repro.hw.config import AcceleratorConfig
from repro.hw.tiling import plan_windows
from repro.hw.tiling import input_extent


class TestInputExtent:
    def test_unit(self):
        assert input_extent(1, 3, 1) == 3
        assert input_extent(5, 3, 1) == 7
        assert input_extent(5, 3, 2) == 11


@pytest.fixture
def config():
    return AcceleratorConfig(n_cu=3, n_knl=14, n_share=4, s_ec=20, d_f=1568)


class TestConvPlans:
    def test_coverage(self, config):
        """Windows tile the full output plane."""
        spec = conv_spec("c", 512, 512, kernel=3, in_rows=28, in_cols=28, padding=1)
        plan = plan_windows(spec, config)
        assert plan.g_r * plan.window_rows >= spec.out_rows
        assert plan.g_c * plan.window_cols >= spec.out_cols

    def test_capacity_respected(self, config):
        """Steady-state window data fits d_f * s_ec feature bytes."""
        spec = conv_spec("c", 512, 512, kernel=3, in_rows=28, in_cols=28, padding=1)
        plan = plan_windows(spec, config)
        cols_in = input_extent(plan.window_cols, 3, 1)
        steady = 512 * plan.window_rows * 1 * cols_in
        assert steady <= config.d_f * config.s_ec

    def test_small_layer_single_window_band(self, config):
        spec = conv_spec("c", 3, 64, kernel=3, in_rows=224, in_cols=224, padding=1)
        plan = plan_windows(spec, config)
        assert plan.g_c == 1  # full-width stripes for shallow inputs
        assert plan.window_cols == 224

    def test_traffic_at_least_input_size(self, config):
        """Per-image traffic >= the raw input map (halo only adds)."""
        spec = conv_spec("c", 256, 256, kernel=3, in_rows=56, in_cols=56, padding=1)
        plan = plan_windows(spec, config)
        assert plan.input_bytes_per_image >= spec.input_size * 0.9

    def test_strided_conv(self, config):
        spec = conv_spec("c", 3, 96, kernel=11, in_rows=227, in_cols=227, stride=4)
        plan = plan_windows(spec, config)
        assert plan.window_rows >= 1
        assert plan.g_r * plan.window_rows >= spec.out_rows

    def test_tiny_buffer_raises(self):
        config = AcceleratorConfig(n_cu=1, n_knl=1, n_share=1, s_ec=1, d_f=1)
        spec = conv_spec("c", 512, 8, kernel=3, in_rows=8, in_cols=8, padding=1)
        with pytest.raises(ValueError):
            plan_windows(spec, config)


class TestFCPlans:
    def test_single_window_batched(self, config):
        spec = fc_spec("fc6", 25088, 4096)
        plan = plan_windows(spec, config)
        assert plan.windows == 1
        assert plan.batch_images == config.s_ec
        assert plan.window_input_bytes == 25088
        assert plan.window_output_bytes == 4096

    def test_fc_overflow_raises(self):
        config = AcceleratorConfig(n_cu=1, n_knl=1, n_share=1, s_ec=2, d_f=16)
        with pytest.raises(ValueError):
            plan_windows(fc_spec("fc", 1000, 10), config)

    def test_fc_window_pixels(self, config):
        plan = plan_windows(fc_spec("fc", 128, 64), config)
        assert plan.window_pixels == 1
