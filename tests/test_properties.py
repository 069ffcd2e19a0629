"""Cross-cutting property-based tests (hypothesis).

System-level invariants over randomized inputs: tiling covers the output
plane exactly once, scheduling conserves work, encoding sizes follow the
hardware widths, and the performance model brackets the simulator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import encode_layer
from repro.core.specs import conv_spec
from repro.hw.config import AcceleratorConfig
from repro.hw.memory import ExternalMemory
from repro.hw.scheduler import build_tasks, simulate_layer
from repro.hw.tiling import plan_windows
from repro.hw.workload import workload_from_arrays
from tests.conftest import sparse_weight_codes


def _spec(channels, out_channels, kernel, size, stride, padding):
    return conv_spec(
        "p",
        channels,
        out_channels,
        kernel,
        in_rows=size,
        in_cols=size,
        stride=stride,
        padding=padding,
    )


class TestTilingProperties:
    @given(
        channels=st.integers(1, 64),
        kernel=st.sampled_from([1, 3, 5]),
        size=st.integers(8, 48),
        s_ec=st.integers(2, 24),
        d_f=st.integers(128, 2048),
    )
    @settings(max_examples=150, deadline=None)
    def test_windows_tile_output_exactly_once(self, channels, kernel, size, s_ec, d_f):
        """Summed per-window pixels == output pixels, no gaps, no overlap."""
        padding = kernel // 2
        spec = _spec(channels, 8, kernel, size, 1, padding)
        config = AcceleratorConfig(n_cu=1, n_knl=4, n_share=2, s_ec=s_ec, d_f=d_f)
        try:
            plan = plan_windows(spec, config)
        except ValueError:
            return  # buffer genuinely too small — rejected loudly, fine
        covered = 0
        for window_index in range(plan.windows):
            row_tile, col_tile = divmod(window_index, plan.g_c)
            rows = min(plan.window_rows, spec.out_rows - row_tile * plan.window_rows)
            cols = min(plan.window_cols, spec.out_cols - col_tile * plan.window_cols)
            assert rows > 0 and cols > 0
            covered += rows * cols
        assert covered == spec.output_pixels

    @given(
        kernel=st.sampled_from([3, 5, 7, 11]),
        stride=st.integers(1, 4),
        size=st.integers(16, 64),
    )
    @settings(max_examples=100, deadline=None)
    def test_strided_coverage(self, kernel, stride, size):
        if size < kernel:
            return
        spec = _spec(3, 8, kernel, size, stride, 0)
        config = AcceleratorConfig(n_cu=1, n_knl=4, n_share=2, s_ec=8, d_f=1024)
        plan = plan_windows(spec, config)
        assert plan.g_r * plan.window_rows >= spec.out_rows
        assert plan.g_c * plan.window_cols >= spec.out_cols


class TestSchedulingProperties:
    @given(
        kernels=st.integers(1, 30),
        n_cu=st.integers(1, 4),
        n_knl=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_work_conservation_and_bounds(self, kernels, n_cu, n_knl, seed):
        rng = np.random.default_rng(seed)
        spec = conv_spec("p", 8, kernels, 3, in_rows=10, in_cols=10, padding=1)
        nonzeros = rng.integers(0, 73, size=kernels)
        distinct = np.minimum(rng.integers(0, 16, size=kernels), nonzeros)
        workload = workload_from_arrays(spec, nonzeros, distinct)
        config = AcceleratorConfig(n_cu=n_cu, n_knl=n_knl, n_share=4, s_ec=8, d_f=512)
        result = simulate_layer(
            workload, config, ExternalMemory(12.8, config.freq_mhz)
        )
        # Conservation: every encoded accumulate executes exactly once.
        assert result.accumulate_ops == workload.accumulate_ops
        # Physics: never faster than the accumulator-array lower bound.
        lower = workload.accumulate_ops / config.total_accumulators
        assert result.cycles >= lower
        # Every CU's busy time fits inside the makespan.
        assert all(busy <= result.cycles for busy in result.cu_busy_cycles)

    @given(
        kernels=st.integers(1, 20),
        n_knl=st.integers(1, 6),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_tasks_partition_kernels(self, kernels, n_knl, seed):
        rng = np.random.default_rng(seed)
        spec = conv_spec("p", 4, kernels, 3, in_rows=8, in_cols=8, padding=1)
        nonzeros = rng.integers(1, 37, size=kernels)
        distinct = np.minimum(rng.integers(1, 9, size=kernels), nonzeros)
        workload = workload_from_arrays(spec, nonzeros, distinct)
        config = AcceleratorConfig(n_cu=2, n_knl=n_knl, n_share=4, s_ec=8, d_f=512)
        plan = plan_windows(spec, config)
        tasks = build_tasks(workload, plan, config)
        groups = math.ceil(kernels / n_knl)
        assert len(tasks) == plan.windows * groups
        # Within one window, every kernel appears exactly once.
        window0 = [t for t in tasks if t.window_index == 0]
        total_kernels = sum(len(t.nonzeros) for t in window0)
        assert total_kernels == kernels


class TestEncodingSizeProperty:
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 8)),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_encoded_bytes_formula(self, shape, density, seed):
        """Bytes == 2 * (header + Q-entries + indices) per kernel, always."""
        rng = np.random.default_rng(seed)
        codes = sparse_weight_codes(
            rng, shape=(shape[0], shape[1], 3, 3), density=density
        )
        layer = encode_layer("p", codes)
        expected = sum(
            2 + 2 * k.qtable_entries + 2 * k.nonzero_count for k in layer.kernels
        )
        assert layer.encoded_bytes == expected
        # Never larger than the dense 8-bit tensor plus per-kernel overhead
        # once density is meaningful; always linear in nnz.
        assert layer.encoded_bytes >= 2 * len(layer.kernels)
