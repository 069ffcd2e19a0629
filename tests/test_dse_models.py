"""Tests for the DSE performance/bandwidth/resource models."""

import pytest

from repro.dse.bandwidth import bandwidth_report, layer_traffic
from repro.dse.performance import (
    MODE_IDEAL,
    MODE_QUANTIZED,
    estimate_layer,
    estimate_model,
    share_factor_from_workloads,
)
from repro.dse.resources import DEFAULT_RESOURCE_MODEL, ResourceModel, next_power_of_two
from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import PAPER_CONFIG_VGG16, AcceleratorConfig
from repro.hw.device import STRATIX_V_GXA7
from repro.workloads import synthetic_model_workload


@pytest.fixture(scope="module")
def vgg_workload():
    return synthetic_model_workload("vgg16", seed=1)


class TestResourceModel:
    def test_paper_config_matches_table2(self):
        """The calibrated constants must reproduce Table 2's resources."""
        estimate = DEFAULT_RESOURCE_MODEL.estimate(PAPER_CONFIG_VGG16)
        assert estimate.dsps == pytest.approx(240, abs=4)
        assert estimate.alms == pytest.approx(165_000, rel=0.05)  # paper 160-170K
        assert estimate.m20ks == pytest.approx(2_447, rel=0.03)  # paper 2435-2460

    def test_utilization_and_binding(self):
        estimate = DEFAULT_RESOURCE_MODEL.estimate(PAPER_CONFIG_VGG16)
        utilization = estimate.utilization(STRATIX_V_GXA7)
        assert 0.6 < utilization.logic < 0.8
        assert 0.9 < utilization.dsp < 1.0
        assert 0.9 < utilization.memory < 1.0
        assert utilization.binding in ("dsp", "memory")
        assert utilization.fits(logic_limit=0.75)

    def test_infeasible_config_detected(self):
        config = AcceleratorConfig(n_cu=6, n_knl=20, n_share=4, s_ec=32)
        utilization = DEFAULT_RESOURCE_MODEL.estimate(config).utilization(STRATIX_V_GXA7)
        assert not utilization.fits(0.75)

    def test_monotone_in_parallelism(self):
        small = DEFAULT_RESOURCE_MODEL.estimate(
            AcceleratorConfig(n_cu=1, n_knl=4, n_share=4, s_ec=8)
        )
        large = DEFAULT_RESOURCE_MODEL.estimate(
            AcceleratorConfig(n_cu=2, n_knl=8, n_share=4, s_ec=16)
        )
        assert large.alms > small.alms
        assert large.dsps > small.dsps
        assert large.m20ks > small.m20ks

    def test_max_accumulators_positive(self):
        assert DEFAULT_RESOURCE_MODEL.max_accumulators(STRATIX_V_GXA7) > 800

    def test_next_power_of_two(self):
        assert next_power_of_two(0) == 1
        assert next_power_of_two(1) == 1
        assert next_power_of_two(1024) == 1024
        assert next_power_of_two(1025) == 2048


class TestPerformanceModel:
    def test_share_factor_is_four(self, vgg_workload):
        """Paper: min ratio 3.4 (conv1_2) -> N = 4."""
        assert share_factor_from_workloads(vgg_workload.layers) == 4

    def test_ideal_at_paper_config(self, vgg_workload):
        perf = estimate_model(vgg_workload, PAPER_CONFIG_VGG16, mode=MODE_IDEAL)
        # Ideal model == the 2*R*N_acc*F roof basis, ~1050 GOP/s.
        assert perf.throughput_gops == pytest.approx(1050, rel=0.05)

    def test_quantized_below_ideal(self, vgg_workload):
        ideal = estimate_model(vgg_workload, PAPER_CONFIG_VGG16, mode=MODE_IDEAL)
        quantized = estimate_model(vgg_workload, PAPER_CONFIG_VGG16, mode=MODE_QUANTIZED)
        assert quantized.throughput_gops < ideal.throughput_gops

    def test_quantized_tracks_simulator(self, vgg_workload):
        """Model and event simulator agree within 10%."""
        model = estimate_model(vgg_workload, PAPER_CONFIG_VGG16, mode=MODE_QUANTIZED)
        simulated = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7).simulate(
            vgg_workload
        )
        ratio = model.throughput_gops / simulated.throughput_gops
        assert 0.9 < ratio < 1.1

    def test_multiplier_bound_layer_flagged(self, vgg_workload):
        """conv1_2's 3.4 intensity ratio < N=4 makes it multiply-bound."""
        layer = vgg_workload.layer("conv1_2")
        perf = estimate_layer(layer, PAPER_CONFIG_VGG16, mode=MODE_IDEAL)
        assert perf.bound == "multiply"

    def test_accumulate_bound_layer(self, vgg_workload):
        layer = vgg_workload.layer("conv4_2")
        perf = estimate_layer(layer, PAPER_CONFIG_VGG16, mode=MODE_IDEAL)
        assert perf.bound == "accumulate"

    def test_unknown_mode(self, vgg_workload):
        with pytest.raises(ValueError):
            estimate_layer(vgg_workload.layers[0], PAPER_CONFIG_VGG16, mode="exact")

    def test_more_resources_faster(self, vgg_workload):
        small = AcceleratorConfig(n_cu=1, n_knl=14, n_share=4, s_ec=20, d_f=1568)
        large = AcceleratorConfig(n_cu=3, n_knl=14, n_share=4, s_ec=20, d_f=1568)
        perf_small = estimate_model(vgg_workload, small, mode=MODE_QUANTIZED)
        perf_large = estimate_model(vgg_workload, large, mode=MODE_QUANTIZED)
        assert perf_large.throughput_gops > 2 * perf_small.throughput_gops


class TestBandwidthModel:
    def test_compute_bound_verdict(self, vgg_workload):
        """Paper Section 5.2: the design is compute-bound on the GXA7."""
        perf = estimate_model(vgg_workload, PAPER_CONFIG_VGG16, mode=MODE_QUANTIZED)
        report = bandwidth_report(
            vgg_workload, PAPER_CONFIG_VGG16, STRATIX_V_GXA7, perf.images_per_second
        )
        assert report.compute_bound
        assert report.bandwidth_headroom > 1.0

    def test_weight_traffic_amortized_by_batch(self, vgg_workload):
        fc6 = vgg_workload.layer("fc6")
        traffic = layer_traffic(fc6, PAPER_CONFIG_VGG16)
        assert traffic.weight_bytes == pytest.approx(
            fc6.encoded_bytes / PAPER_CONFIG_VGG16.s_ec
        )

    def test_conv_weight_restreamed_per_window(self, vgg_workload):
        conv = vgg_workload.layer("conv4_2")
        traffic = layer_traffic(conv, PAPER_CONFIG_VGG16)
        assert traffic.windows > 1
        assert traffic.weight_bytes > conv.encoded_bytes / PAPER_CONFIG_VGG16.s_ec

    def test_rate_validation(self, vgg_workload):
        with pytest.raises(ValueError):
            bandwidth_report(vgg_workload, PAPER_CONFIG_VGG16, STRATIX_V_GXA7, 0.0)

    def test_total_bytes_positive(self, vgg_workload):
        perf = estimate_model(vgg_workload, PAPER_CONFIG_VGG16)
        report = bandwidth_report(
            vgg_workload, PAPER_CONFIG_VGG16, STRATIX_V_GXA7, perf.images_per_second
        )
        assert report.bytes_per_image > 0
        for layer in report.layers:
            assert layer.total_bytes > 0
