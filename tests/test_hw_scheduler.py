"""Tests for the semi-synchronous scheduler and layer simulation."""

import numpy as np
import pytest

from repro.core.specs import conv_spec, fc_spec
from repro.hw.config import AcceleratorConfig
from repro.hw.memory import ExternalMemory
from repro.hw.scheduler import (
    POLICY_BALANCED,
    POLICY_NATURAL,
    build_tasks,
    make_kernel_groups,
    simulate_layer,
)
from repro.hw.tiling import plan_windows
from repro.hw.workload import workload_from_arrays


@pytest.fixture
def config():
    return AcceleratorConfig(n_cu=3, n_knl=4, n_share=4, s_ec=8, d_f=512)


@pytest.fixture
def workload(rng):
    spec = conv_spec("c", 16, 10, kernel=3, in_rows=12, in_cols=12, padding=1)
    nonzeros = rng.integers(10, 100, size=10)
    distinct = np.minimum(rng.integers(1, 12, size=10), nonzeros)
    return workload_from_arrays(spec, nonzeros, distinct)


def make_memory(config):
    return ExternalMemory(bandwidth_gbs=12.8, freq_mhz=config.freq_mhz)


class TestKernelGroups:
    def test_natural_order(self, workload, config):
        groups = make_kernel_groups(workload, config, POLICY_NATURAL)
        assert [g.tolist() for g in groups] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_balanced_sorts_by_nnz(self, workload, config):
        groups = make_kernel_groups(workload, config, POLICY_BALANCED)
        nnz = workload.nonzeros
        flattened = np.concatenate(groups)
        assert np.all(np.diff(nnz[flattened]) <= 0)

    def test_unknown_policy(self, workload, config):
        with pytest.raises(ValueError):
            make_kernel_groups(workload, config, "random")


class TestBuildTasks:
    def test_task_count(self, workload, config):
        plan = plan_windows(workload.spec, config)
        tasks = build_tasks(workload, plan, config)
        groups = len(make_kernel_groups(workload, config, POLICY_NATURAL))
        assert len(tasks) == plan.windows * groups

    def test_pixel_coverage(self, workload, config):
        """Summed window pixels of one group == the full output plane."""
        plan = plan_windows(workload.spec, config)
        tasks = build_tasks(workload, plan, config)
        group0 = [t for t in tasks if t.group_index == 0]
        assert sum(t.window_pixels for t in group0) == workload.spec.output_pixels


class TestSimulateLayer:
    def test_conservation_of_work(self, workload, config):
        """Executed accumulates equal the workload's encoded accumulates."""
        result = simulate_layer(workload, config, make_memory(config))
        assert result.accumulate_ops == workload.accumulate_ops
        assert result.multiply_ops == workload.multiply_ops

    def test_busy_bounded_by_makespan(self, workload, config):
        result = simulate_layer(workload, config, make_memory(config))
        for busy in result.cu_busy_cycles:
            assert busy <= result.cycles
        assert 0.0 < result.cu_utilization <= 1.0
        assert 0.0 < result.engine_utilization <= 1.0

    def test_throughput_below_roof(self, workload, config):
        """The simulator can never beat the accumulator roof."""
        result = simulate_layer(workload, config, make_memory(config))
        ideal_cycles = workload.accumulate_ops / config.total_accumulators
        assert result.cycles >= ideal_cycles

    def test_balanced_policy_not_slower(self, workload, config):
        natural = simulate_layer(workload, config, make_memory(config), POLICY_NATURAL)
        balanced = simulate_layer(workload, config, make_memory(config), POLICY_BALANCED)
        assert balanced.cycles <= natural.cycles * 1.05

    def test_fc_layer_batched(self, rng, config):
        spec = fc_spec("fc", 256, 64)
        nonzeros = rng.integers(5, 50, size=64)
        distinct = np.minimum(rng.integers(1, 6, size=64), nonzeros)
        workload = workload_from_arrays(spec, nonzeros, distinct)
        result = simulate_layer(workload, config, make_memory(config))
        assert result.images == config.s_ec
        assert result.cycles_per_image < result.cycles

    def test_slow_memory_stalls(self, workload, config):
        fast = simulate_layer(workload, config, make_memory(config))
        slow_memory = ExternalMemory(bandwidth_gbs=0.01, freq_mhz=config.freq_mhz)
        slow = simulate_layer(workload, config, slow_memory)
        assert slow.cycles > fast.cycles
        assert slow.memory_stall_cycles > 0
        assert slow.memory_bound

    def test_more_cus_not_slower(self, workload):
        memory_args = dict(bandwidth_gbs=12.8, freq_mhz=200.0)
        one = simulate_layer(
            workload,
            AcceleratorConfig(n_cu=1, n_knl=4, n_share=4, s_ec=8, d_f=512),
            ExternalMemory(**memory_args),
        )
        three = simulate_layer(
            workload,
            AcceleratorConfig(n_cu=3, n_knl=4, n_share=4, s_ec=8, d_f=512),
            ExternalMemory(**memory_args),
        )
        assert three.cycles <= one.cycles

    def test_zero_kernel_layer(self, config):
        """A fully-pruned kernel contributes no work but must not crash."""
        spec = conv_spec("c", 4, 4, kernel=3, in_rows=6, in_cols=6, padding=1)
        workload = workload_from_arrays(spec, [0, 5, 0, 3], [0, 2, 0, 1])
        result = simulate_layer(workload, config, make_memory(config))
        assert result.accumulate_ops == workload.accumulate_ops
        assert result.cycles > 0


class TestExternalMemory:
    def test_transfer_cycles(self):
        memory = ExternalMemory(bandwidth_gbs=12.8, freq_mhz=200.0)
        assert memory.bytes_per_cycle == pytest.approx(64.0)
        assert memory.transfer_cycles(6400) == 64 + 100

    def test_zero_transfer_free(self):
        memory = ExternalMemory(bandwidth_gbs=12.8, freq_mhz=200.0)
        assert memory.transfer_cycles(0) == 0
        assert memory.record(0) == 0
        assert memory.transfers == 0

    def test_accounting(self):
        memory = ExternalMemory(bandwidth_gbs=12.8, freq_mhz=200.0)
        memory.record(6400)
        memory.record(6400)
        assert memory.total_bytes == 12800
        assert memory.transfers == 2

    def test_achieved_bandwidth(self):
        memory = ExternalMemory(bandwidth_gbs=12.8, freq_mhz=200.0)
        memory.record(64_000_000)
        achieved = memory.achieved_bandwidth_gbs(200_000_000)
        assert achieved == pytest.approx(0.064, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExternalMemory(bandwidth_gbs=0, freq_mhz=200)
        memory = ExternalMemory(bandwidth_gbs=1, freq_mhz=200)
        with pytest.raises(ValueError):
            memory.transfer_cycles(-1)
