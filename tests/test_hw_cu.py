"""Tests for the CU cycle model and the bit-accurate functional datapath."""

import numpy as np
import pytest

from repro.core.abm import ConvGeometry, abm_conv2d_batch
from repro.core.encoding import encode_layer
from repro.hw.config import AcceleratorConfig
from repro.hw.cu import (
    PIPELINE_FILL_CYCLES,
    TASK_LAUNCH_CYCLES,
    ConvTask,
    FunctionalCU,
    task_cycles,
)
from repro.quant.fixed_point import QFormat
from tests.conftest import sparse_weight_codes


@pytest.fixture
def config():
    return AcceleratorConfig(n_cu=1, n_knl=4, n_share=4, s_ec=8)


def make_task(nonzeros, distinct, pixels=16):
    return ConvTask(
        layer="l",
        window_index=0,
        group_index=0,
        nonzeros=tuple(nonzeros),
        distinct=tuple(distinct),
        window_pixels=pixels,
    )


class TestTaskCycles:
    def test_accumulate_bound_engine(self, config):
        """nnz >> N * distinct -> the accumulate stage sets the pace."""
        task = make_task([100], [5], pixels=8)
        cost = task_cycles(task, config)
        assert cost.cycles == 100 + TASK_LAUNCH_CYCLES + PIPELINE_FILL_CYCLES

    def test_multiply_bound_engine(self, config):
        """distinct * N > nnz -> the shared multiplier limits the engine."""
        task = make_task([10], [9], pixels=8)
        cost = task_cycles(task, config)
        assert cost.cycles == 9 * 4 + TASK_LAUNCH_CYCLES + PIPELINE_FILL_CYCLES

    def test_slowest_engine_dominates(self, config):
        task = make_task([100, 10, 50], [2, 2, 2], pixels=8)
        cost = task_cycles(task, config)
        assert cost.cycles == 100 + TASK_LAUNCH_CYCLES + PIPELINE_FILL_CYCLES

    def test_vector_steps_scale_cycles(self, config):
        short = task_cycles(make_task([50], [2], pixels=8), config)
        double = task_cycles(make_task([50], [2], pixels=16), config)
        assert (double.cycles - TASK_LAUNCH_CYCLES - PIPELINE_FILL_CYCLES) == 2 * (
            short.cycles - TASK_LAUNCH_CYCLES - PIPELINE_FILL_CYCLES
        )

    def test_engine_utilization(self, config):
        balanced = task_cycles(make_task([50, 50, 50, 50], [2, 2, 2, 2]), config)
        skewed = task_cycles(make_task([100, 10, 10, 10], [2, 2, 2, 2]), config)
        assert balanced.engine_utilization == pytest.approx(1.0)
        assert skewed.engine_utilization < 0.5

    def test_op_accounting(self, config):
        task = make_task([10, 20], [3, 4], pixels=16)
        cost = task_cycles(task, config)
        assert cost.accumulate_ops == (10 + 20) * 16
        assert cost.multiply_ops == (3 + 4) * 16

    def test_task_validation(self):
        with pytest.raises(ValueError):
            make_task([10], [3, 4])
        with pytest.raises(ValueError):
            make_task([], [])
        with pytest.raises(ValueError):
            make_task([10], [3], pixels=0)


class TestFunctionalCU:
    def test_datapath_matches_abm(self, rng):
        """Address gen -> accumulators -> FIFO -> multiplier == the fast path."""
        weights = sparse_weight_codes(rng, shape=(3, 4, 3, 3), density=0.5)
        features = rng.integers(-32, 32, size=(4, 7, 7))
        geometry = ConvGeometry(kernel=3, stride=1, padding=0)
        encoded = encode_layer("t", weights)
        expected = abm_conv2d_batch(features[None], encoded, geometry).output[0]

        config = AcceleratorConfig(n_cu=1, n_knl=3, n_share=4, s_ec=4)
        cu = FunctionalCU(config, kernel_size=3, stride=1)
        positions = [(r, c) for r in range(5) for c in range(5)]
        for m, kernel in enumerate(encoded.kernels):
            outputs = cu.run_kernel(kernel, features, positions)
            assert outputs == expected[m].reshape(-1).tolist()

    def test_bias_enters_final_sum(self, rng):
        weights = sparse_weight_codes(rng, shape=(1, 2, 3, 3), density=0.6)
        features = rng.integers(-8, 8, size=(2, 3, 3))
        encoded = encode_layer("t", weights)
        config = AcceleratorConfig(n_cu=1, n_knl=1, n_share=4, s_ec=4)
        cu = FunctionalCU(config, kernel_size=3)
        without = cu.run_kernel(encoded.kernels[0], features, [(0, 0)])
        with_bias = cu.run_kernel(encoded.kernels[0], features, [(0, 0)], bias=42)
        assert with_bias[0] == without[0] + 42

    def test_round_output_single_rounding(self):
        source = QFormat(32, 10)
        target = QFormat(8, 2)
        value = int(source.quantize(3.3)[()])
        rounded = FunctionalCU.round_output(value, source, target)
        assert target.dequantize(rounded)[()] == pytest.approx(3.25)
