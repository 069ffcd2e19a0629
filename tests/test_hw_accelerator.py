"""Tests for the top-level accelerator simulator and the MAC-array baseline."""

import pytest

from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16
from repro.hw.device import STRATIX_V_GXA7
from repro.hw.mac_array import MacArrayConfig, mac_array_for_device, simulate_mac_model
from repro.nn.models import vgg16_architecture
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

    def test_layer_lookup(self, vgg_result):
        assert vgg_result.layer_result("conv1_1").layer == "conv1_1"
        with pytest.raises(KeyError):
            vgg_result.layer_result("conv9_9")

    def test_utilization_summary_renders(self, vgg_result):
        text = AcceleratorSimulator(
            PAPER_CONFIG_VGG16, STRATIX_V_GXA7
        ).utilization_summary(vgg_result)
        assert "conv1_1" in text
        assert "total" in text


class TestMacArray:
    def test_array_for_device(self):
        config = mac_array_for_device(STRATIX_V_GXA7)
        assert config.mac_units == 512

    def test_vgg_throughput_near_sdconv_roof(self):
        """A dense MAC array cannot exceed (and should approach) 204.8 GOP/s."""
        specs = vgg16_architecture().accelerated_specs()
        result = simulate_mac_model(specs, mac_array_for_device(STRATIX_V_GXA7))
        assert result.throughput_gops <= 204.8
        assert result.throughput_gops > 0.5 * 204.8

    def test_abm_beats_mac_array(self, vgg_result):
        specs = vgg16_architecture().accelerated_specs()
        dense = simulate_mac_model(specs, mac_array_for_device(STRATIX_V_GXA7))
        assert vgg_result.throughput_gops > 3 * dense.throughput_gops

    def test_utilization_bounded(self):
        specs = vgg16_architecture().accelerated_specs()
        result = simulate_mac_model(specs, mac_array_for_device(STRATIX_V_GXA7))
        assert 0.0 < result.array_utilization <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MacArrayConfig(rows=0, cols=4)
        with pytest.raises(ValueError):
            MacArrayConfig(rows=4, cols=4, freq_mhz=0)
