"""Tests for the activity-based power model."""

import pytest

from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import PAPER_CONFIG_VGG16
from repro.hw.device import STRATIX_V_GXA7
from repro.hw.power import ACCUMULATE_J, MULTIPLY_J, STATIC_W, abm_power_analytic
from repro.workloads import synthetic_model_workload


@pytest.fixture(scope="module")
def workload():
    return synthetic_model_workload("vgg16", seed=1)


@pytest.fixture(scope="module")
def seconds(workload):
    """Simulated VGG16 time per image at the paper configuration."""
    simulator = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7)
    return simulator.simulate(workload).seconds_per_image


@pytest.fixture(scope="module")
def report(workload, seconds):
    return abm_power_analytic(workload, PAPER_CONFIG_VGG16, seconds)


class TestPowerRelationships:
    def test_power_in_fpga_range(self, report):
        """Sanity: a Stratix-V accelerator draws single-digit-to-tens W."""
        assert 1.0 < report.total_power_w < 60.0

    def test_dynamic_plus_static(self, report, seconds):
        assert report.static_w == STATIC_W
        assert report.total_power_w == report.energy_per_image_j / seconds + report.static_w


class TestEnergyModel:
    def test_multiply_costs_more_than_accumulate(self):
        assert MULTIPLY_J > ACCUMULATE_J
