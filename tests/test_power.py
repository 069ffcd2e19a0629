"""Tests for the activity-based power model."""

import pytest

from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import PAPER_CONFIG_VGG16
from repro.hw.device import STRATIX_V_GXA7
from repro.hw.mac_array import mac_array_for_device, simulate_mac_model
from repro.hw.power import EnergyModel, abm_power, mac_array_power
from repro.nn.models import vgg16_architecture
from repro.workloads import synthetic_model_workload


@pytest.fixture(scope="module")
def reports():
    workload = synthetic_model_workload("vgg16", seed=1)
    simulation = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7).simulate(
        workload
    )
    abm = abm_power(simulation)
    specs = vgg16_architecture().accelerated_specs()
    dense = simulate_mac_model(specs, mac_array_for_device(STRATIX_V_GXA7))
    feature_bytes = sum(s.input_size + s.output_size for s in specs)
    weight_bytes = sum(s.weight_count for s in specs)
    mac = mac_array_power(dense, feature_bytes, weight_bytes)
    return abm, mac


class TestPowerRelationships:
    def test_abm_energy_per_image_far_below_dense(self, reports):
        """Sparse+factored execution cuts energy per image several-fold."""
        abm, mac = reports
        assert abm.energy_per_image_j < mac.energy_per_image_j / 3

    def test_abm_more_efficient_per_watt(self, reports):
        abm, mac = reports
        assert abm.gops_per_watt > mac.gops_per_watt

    def test_power_in_fpga_range(self, reports):
        """Sanity: a Stratix-V accelerator draws single-digit-to-tens W."""
        abm, mac = reports
        for report in (abm, mac):
            assert 1.0 < report.total_power_w < 60.0

    def test_dynamic_plus_static(self, reports):
        abm, _ = reports
        assert abm.total_power_w == pytest.approx(
            abm.dynamic_power_w + abm.static_w
        )

    def test_mj_units(self, reports):
        abm, _ = reports
        assert abm.energy_per_image_mj == pytest.approx(abm.energy_per_image_j * 1e3)


class TestEnergyModel:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(accumulate_j=-1.0)

    def test_multiply_costs_more_than_accumulate(self):
        model = EnergyModel()
        assert model.multiply_j > model.accumulate_j

    def test_custom_coefficients_scale_energy(self, reports):
        workload = synthetic_model_workload("vgg16", seed=1)
        simulation = AcceleratorSimulator(
            PAPER_CONFIG_VGG16, STRATIX_V_GXA7
        ).simulate(workload)
        base = abm_power(simulation)
        doubled = abm_power(
            simulation,
            EnergyModel(
                accumulate_j=3.0e-12,
                multiply_j=12.0e-12,
                sram_access_j=10.0e-12,
                ddr_byte_j=140.0e-12,
            ),
        )
        assert doubled.energy_per_image_j == pytest.approx(
            2 * base.energy_per_image_j
        )
