"""Tests for the top-level accelerator simulator."""

import pytest

from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16
from repro.hw.device import STRATIX_V_GXA7
from repro.workloads import synthetic_model_workload


@pytest.fixture(scope="module")
def vgg_result():
    workload = synthetic_model_workload("vgg16", seed=1)
    return AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7).simulate(workload)


@pytest.fixture(scope="module")
def alexnet_result():
    workload = synthetic_model_workload("alexnet", seed=1)
    return AcceleratorSimulator(PAPER_CONFIG_ALEXNET, STRATIX_V_GXA7).simulate(workload)


class TestModelSimulation:
    def test_vgg_throughput_band(self, vgg_result):
        """Simulated VGG16 must land in the paper's band: clearly above the
        662 GOP/s FDConv baseline, below the 1,052 GOP/s configuration roof."""
        assert 662.3 < vgg_result.throughput_gops < 1052

    def test_vgg_beats_fdconv_by_sizeable_factor(self, vgg_result):
        speedup = vgg_result.throughput_gops / 662.3
        assert speedup > 1.25  # paper: 1.55x

    def test_alexnet_throughput_band(self, alexnet_result):
        """AlexNet: modest speedup over [3]'s 663.5 (paper: 5.4%)."""
        assert 600 < alexnet_result.throughput_gops < 816

    def test_cycles_aggregate(self, vgg_result):
        assert vgg_result.cycles_per_image == pytest.approx(
            sum(l.cycles_per_image for l in vgg_result.layers)
        )

    def test_throughput_definition(self, vgg_result):
        expected = vgg_result.dense_ops / vgg_result.seconds_per_image / 1e9
        assert vgg_result.throughput_gops == pytest.approx(expected)

    def test_effective_below_dense_basis(self, vgg_result):
        """Executed ops are ~6x fewer than the dense basis for VGG16."""
        assert vgg_result.effective_gops < vgg_result.throughput_gops / 4

    def test_utilizations_in_range(self, vgg_result, alexnet_result):
        for result in (vgg_result, alexnet_result):
            assert 0.8 < result.cu_utilization <= 1.0
            assert 0.8 < result.engine_utilization <= 1.0
            assert 0.0 <= result.memory_stall_fraction < 0.2

    def test_compute_bound(self, vgg_result):
        """Paper Section 5.2: the design is compute-bound on the GXA7."""
        assert vgg_result.bandwidth_gbs < STRATIX_V_GXA7.bandwidth_gbs

    def test_perf_density_beats_prior_work(self, vgg_result):
        """Table 2: >3x density advantage over the Arria-10 designs."""
        density = vgg_result.perf_density(240)
        assert density / 1.29 > 2.0  # vs [4], the densest baseline

    def test_perf_density_validation(self, vgg_result):
        with pytest.raises(ValueError):
            vgg_result.perf_density(0)

    def test_utilization_summary_renders(self, vgg_result):
        text = AcceleratorSimulator(
            PAPER_CONFIG_VGG16, STRATIX_V_GXA7
        ).utilization_summary(vgg_result)
        assert "conv1_1" in text
        assert "total" in text
