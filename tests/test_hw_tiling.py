"""Tests for prefetch-window planning."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.specs import conv_spec, fc_spec
from repro.hw.config import AcceleratorConfig
from repro.hw.tiling import WindowPlan, plan_layer_windows, plan_windows
from repro.hw.tiling import input_extent
from repro.workloads import synthetic_model_workload


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


# ---------------------------------------------------------------------------
# The closed-form planner vs the row-by-row search it replaced.
# ---------------------------------------------------------------------------


def loop_plan_layer_windows(spec, d_f, s_ec):
    """The planner's former search loops, kept verbatim as its oracle."""
    capacity = d_f * s_ec  # feature bytes per CU
    if spec.is_fc:
        if spec.input_size > capacity:
            raise ValueError(
                f"{spec.name}: FC input of {spec.input_size} bytes exceeds the "
                f"FT-Buffer capacity of {capacity}; deepen d_f"
            )
        return WindowPlan(
            layer=spec.name,
            window_rows=1,
            window_cols=1,
            g_r=1,
            g_c=1,
            out_rows=1,
            out_cols=1,
            window_input_bytes=spec.input_size,
            window_output_bytes=spec.out_channels,
            batch_images=s_ec,
        )

    channels = spec.in_channels
    k, s = spec.kernel, spec.stride

    def new_rows(rows_out):
        return rows_out * s

    def fits(rows_out, cols_out):
        cols_in = input_extent(cols_out, k, s)
        return channels * new_rows(rows_out) * cols_in <= capacity

    def lane_efficiency(rows_out, cols_out):
        pixels = rows_out * cols_out
        steps = math.ceil(pixels / s_ec)
        return pixels / (steps * s_ec)

    if fits(1, spec.out_cols):
        w_c = spec.out_cols
        best_w_r, best_eff = 1, lane_efficiency(1, w_c)
        rows = 1
        while rows < spec.out_rows and fits(rows + 1, w_c):
            rows += 1
            eff = lane_efficiency(rows, w_c)
            if eff >= best_eff:
                best_w_r, best_eff = rows, eff
        w_r = best_w_r
    else:
        w_r = 1
        w_c = spec.out_cols
        while w_c > 1 and not fits(1, w_c):
            w_c -= 1
        if not fits(w_r, w_c):
            raise ValueError(
                f"{spec.name}: even a 1x1 output window exceeds the FT-Buffer "
                f"({channels * k * k} bytes needed, {capacity} available)"
            )
    g_r = math.ceil(spec.out_rows / w_r)
    g_c = math.ceil(spec.out_cols / w_c)
    cols_in = input_extent(w_c, k, s)
    steady_bytes = channels * new_rows(w_r) * cols_in
    halo_bytes = channels * max(k - s, 0) * cols_in
    return WindowPlan(
        layer=spec.name,
        window_rows=w_r,
        window_cols=w_c,
        g_r=g_r,
        g_c=g_c,
        out_rows=spec.out_rows,
        out_cols=spec.out_cols,
        window_input_bytes=steady_bytes + math.ceil(halo_bytes / g_c),
        window_output_bytes=spec.out_channels * w_r * w_c,
        batch_images=1,
    )


def plan_or_error(planner, spec, d_f, s_ec):
    try:
        return planner(spec, d_f, s_ec)
    except ValueError as error:
        return str(error)


@st.composite
def any_spec(draw):
    if draw(st.booleans()):
        return fc_spec("fc", draw(st.integers(1, 30000)), draw(st.integers(1, 64)))
    kernel = draw(st.integers(1, 11))
    return conv_spec(
        "conv",
        draw(st.integers(1, 600)),
        draw(st.integers(1, 64)),
        kernel,
        in_rows=draw(st.integers(kernel, 240)),
        in_cols=draw(st.integers(kernel, 240)),
        stride=draw(st.integers(1, 8)),
        padding=draw(st.integers(0, 3)),
    )


class TestClosedFormPlanner:
    @settings(max_examples=400, deadline=None)
    @given(spec=any_spec(), d_f=st.integers(1, 9000), s_ec=st.integers(1, 40))
    def test_matches_the_search_loops(self, spec, d_f, s_ec):
        """Every field and every error text equal the loop planner's."""
        assert plan_or_error(plan_layer_windows, spec, d_f, s_ec) == plan_or_error(
            loop_plan_layer_windows, spec, d_f, s_ec
        )

    @pytest.mark.parametrize("model", ["alexnet", "vgg16"])
    def test_matches_on_the_paper_layers(self, model):
        specs = [layer.spec for layer in synthetic_model_workload(model, seed=1).layers]
        for spec in specs:
            for d_f in range(8, 9000, 211):
                for s_ec in (1, 2, 3, 5, 7, 8, 13, 20, 26, 31, 39):
                    assert plan_or_error(
                        plan_layer_windows, spec, d_f, s_ec
                    ) == plan_or_error(loop_plan_layer_windows, spec, d_f, s_ec)
