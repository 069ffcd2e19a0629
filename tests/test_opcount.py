"""Tests for repro.core.opcount and repro.core.schemes."""

import numpy as np
import pytest

from repro.core.encoding import encode_layer
from repro.core.opcount import (
    analytic_layer_counts,
    analytic_model_counts,
    expected_distinct_values,
    measured_layer_counts,
)
from repro.core.schemes import ConvScheme, abm_roof, reduced_mac_roof, sdconv_roof
from repro.core.specs import conv_spec, fc_spec
from tests.conftest import sparse_weight_codes


class TestAnalyticCounts:
    def test_sdconv_is_dense(self, small_conv_spec):
        counts = analytic_layer_counts(small_conv_spec, density=0.3, distinct_values_per_kernel=10)
        assert counts.sdconv_ops == small_conv_spec.dense_ops

    def test_fdconv_reduction_only_on_conv(self, small_conv_spec, small_fc_spec):
        conv = analytic_layer_counts(small_conv_spec, 0.3, 10)
        fc = analytic_layer_counts(small_fc_spec, 0.3, 5)
        assert conv.fdconv_ops == pytest.approx(conv.sdconv_ops / 3.3)
        assert fc.fdconv_ops == fc.sdconv_ops  # FC gains nothing (Table 1 FC6)

    def test_spconv_scales_with_density(self, small_conv_spec):
        counts = analytic_layer_counts(small_conv_spec, 0.25, 10)
        assert counts.spconv_ops == pytest.approx(0.25 * small_conv_spec.dense_ops)

    def test_abm_accumulates_are_half_spconv(self, small_conv_spec):
        """Table 1: ABM Acc == SpConv / 2 (one op per surviving weight)."""
        counts = analytic_layer_counts(small_conv_spec, 0.4, 10)
        assert counts.abm_accumulates == pytest.approx(counts.spconv_ops / 2)

    def test_abm_multiplies(self, small_conv_spec):
        counts = analytic_layer_counts(small_conv_spec, 0.4, 12.5)
        assert counts.abm_multiplies == pytest.approx(12.5 * small_conv_spec.kernel_count)

    def test_ratio_column(self, small_conv_spec):
        counts = analytic_layer_counts(small_conv_spec, 0.4, 10)
        expected = counts.abm_accumulates / counts.abm_multiplies
        assert counts.acc_to_mult_ratio == pytest.approx(expected)

    def test_invalid_density(self, small_conv_spec):
        with pytest.raises(ValueError):
            analytic_layer_counts(small_conv_spec, 1.5, 10)

    def test_model_totals_and_savings(self, small_conv_spec, small_fc_spec):
        model = analytic_model_counts(
            [small_conv_spec, small_fc_spec],
            densities={"small": 0.3, "small_fc": 0.1},
            distinct_values={"small": 10, "small_fc": 5},
        )
        assert model.sdconv_ops == small_conv_spec.dense_ops + small_fc_spec.dense_ops
        assert 0 < model.saved_vs_sdconv < 1
        assert model.abm_ops < model.spconv_ops < model.sdconv_ops

    def test_missing_layer_raises(self, small_conv_spec):
        with pytest.raises(KeyError):
            analytic_model_counts([small_conv_spec], {}, {"small": 3})


class TestMeasuredCounts:
    def test_matches_encoding(self, rng, small_conv_spec):
        codes = sparse_weight_codes(rng, shape=small_conv_spec.weight_shape(), density=0.3)
        encoded = encode_layer(small_conv_spec.name, codes)
        counts = measured_layer_counts(small_conv_spec, encoded)
        pixels = small_conv_spec.output_pixels
        assert counts.abm_accumulates == np.count_nonzero(codes) * pixels
        assert counts.spconv_ops == 2 * counts.abm_accumulates

    def test_kernel_count_mismatch(self, rng, small_conv_spec):
        codes = sparse_weight_codes(rng, shape=(3, 16, 3, 3))
        encoded = encode_layer("small", codes)
        with pytest.raises(ValueError):
            measured_layer_counts(small_conv_spec, encoded)


class TestExpectedDistinct:
    def test_bounds(self):
        assert expected_distinct_values(0, 16) == 0.0
        assert expected_distinct_values(10000, 16) == pytest.approx(16, rel=1e-6)

    def test_single_draw(self):
        assert expected_distinct_values(1, 16) == pytest.approx(1.0)

    def test_matches_sampling(self, rng):
        codebook, nnz = 20, 300
        sampled = []
        for _ in range(300):
            counts = rng.multinomial(nnz, np.full(codebook, 1 / codebook))
            sampled.append(np.count_nonzero(counts))
        assert expected_distinct_values(nnz, codebook) == pytest.approx(
            np.mean(sampled), rel=0.02
        )

    def test_custom_concentration(self):
        concentration = np.array([0.7, 0.1, 0.1, 0.1])
        value = expected_distinct_values(50, 4, concentration)
        assert 3.0 < value <= 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_distinct_values(10, 0)
        with pytest.raises(ValueError):
            expected_distinct_values(-1, 4)
        with pytest.raises(ValueError):
            expected_distinct_values(10, 3, np.array([0.5, 0.5]))


class TestRoofs:
    def test_sdconv_roof_matches_paper(self):
        """Paper Section 1: 204.8 GOP/s on the GXA7 at 200 MHz."""
        roof = sdconv_roof(n_mac=512, freq_mhz=200)
        assert roof.gops == pytest.approx(204.8)
        assert roof.scheme is ConvScheme.SDCONV

    def test_fdconv_roof(self):
        roof = reduced_mac_roof(512, 200, 3.3)
        assert roof.gops == pytest.approx(675.8, rel=0.001)

    def test_abm_roof(self):
        roof = abm_roof(n_acc=2615, freq_mhz=200)
        assert roof.gops == pytest.approx(1046, rel=0.001)

    def test_reduction_below_one_rejected(self):
        with pytest.raises(ValueError):
            reduced_mac_roof(512, 200, 0.5)
