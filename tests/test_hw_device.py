"""Tests for the device catalog and accelerator configuration."""

import pytest

from repro.hw.config import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16, AcceleratorConfig
from repro.hw.device import STRATIX_V_GXA7, FPGADevice, available_devices, get_device


class TestDevices:
    def test_gxa7_resources_match_paper(self):
        """Section 6.1: 234,720 ALMs, 256 DSPs, 2,560 M20Ks, 12.8 GB/s."""
        assert STRATIX_V_GXA7.alms == 234_720
        assert STRATIX_V_GXA7.dsps == 256
        assert STRATIX_V_GXA7.m20k_blocks == 2_560
        assert STRATIX_V_GXA7.bandwidth_gbs == 12.8

    def test_mac_count(self):
        """Each Stratix-V DSP performs two 16/8-bit MACs (Section 1)."""
        assert STRATIX_V_GXA7.mac_count == 512

    def test_max_accumulators_supports_fig1_roof(self):
        """~2,600 accumulator slices -> the 1,046 GOP/s roof of Figure 1."""
        n_acc = STRATIX_V_GXA7.max_accumulators
        assert 2 * n_acc * 200 / 1e3 == pytest.approx(1046, rel=0.01)

    def test_catalog_lookup(self):
        assert get_device("stratix-v gxa7") is STRATIX_V_GXA7
        assert "Arria-10 GX1150" in available_devices()
        with pytest.raises(KeyError):
            get_device("virtex-7")

    def test_validation(self):
        with pytest.raises(ValueError):
            FPGADevice("bad", alms=0, dsps=1, m20k_blocks=1, bandwidth_gbs=1.0)
        with pytest.raises(ValueError):
            FPGADevice("bad", alms=1, dsps=1, m20k_blocks=1, bandwidth_gbs=0.0)


class TestAcceleratorConfig:
    def test_paper_config_derived_sizes(self):
        """(N_cu=3, N_knl=14, S_ec=20, N=4) -> 840 accumulators, 210 mults."""
        config = PAPER_CONFIG_VGG16
        assert config.total_accumulators == 840
        assert config.accumulators_per_cu == 280
        assert config.multipliers_per_cu == 70
        assert config.total_multipliers == 210

    def test_paper_configs_match_table3(self):
        assert PAPER_CONFIG_ALEXNET.d_f == 1152
        assert PAPER_CONFIG_ALEXNET.d_w == 1024
        assert PAPER_CONFIG_VGG16.d_f == 1568
        assert PAPER_CONFIG_VGG16.d_w == 2048
        assert PAPER_CONFIG_VGG16.d_q == 128
        assert PAPER_CONFIG_ALEXNET.freq_mhz == 202.0
        assert PAPER_CONFIG_VGG16.freq_mhz == 204.0

    def test_multiplier_ceiling(self):
        config = AcceleratorConfig(n_cu=1, n_knl=3, n_share=4, s_ec=5)
        assert config.multipliers_per_cu == 4  # ceil(15 / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(n_cu=0, n_knl=1, n_share=1, s_ec=1)
        with pytest.raises(ValueError):
            AcceleratorConfig(n_cu=1, n_knl=1, n_share=1, s_ec=1, freq_mhz=0.0)
        with pytest.raises(ValueError):
            AcceleratorConfig(n_cu=1, n_knl=1, n_share=1, s_ec=1, d_f=0)

    def test_describe_mentions_arrays(self):
        text = PAPER_CONFIG_VGG16.describe()
        assert "acc=840" in text
        assert "mult=210" in text
