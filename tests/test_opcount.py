"""Tests for repro.core.opcount and repro.core.schemes."""

import numpy as np
import pytest

from repro.core.encoding import encode_layer
from repro.core.opcount import expected_distinct_values, measured_layer_counts
from repro.core.schemes import ConvScheme, abm_roof, reduced_mac_roof, sdconv_roof
from repro.core.specs import conv_spec, fc_spec
from tests.conftest import sparse_weight_codes


class TestMeasuredCounts:
    def test_matches_encoding(self, rng, small_conv_spec):
        codes = sparse_weight_codes(rng, shape=small_conv_spec.weight_shape(), density=0.3)
        encoded = encode_layer(small_conv_spec.name, codes)
        counts = measured_layer_counts(small_conv_spec, encoded)
        pixels = small_conv_spec.output_pixels
        assert counts.abm_accumulates == np.count_nonzero(codes) * pixels
        assert counts.spconv_ops == 2 * counts.abm_accumulates
        assert counts.sdconv_ops == small_conv_spec.dense_ops
        assert counts.fdconv_ops == pytest.approx(counts.sdconv_ops / 3.3)
        expected = counts.abm_accumulates / counts.abm_multiplies
        assert counts.acc_to_mult_ratio == pytest.approx(expected)

    def test_fdconv_gains_nothing_on_fc(self, rng, small_fc_spec):
        """Table 1 shows FC6 unchanged under FDConv."""
        codes = sparse_weight_codes(
            rng, shape=small_fc_spec.weight_shape(), density=0.3
        )
        encoded = encode_layer(small_fc_spec.name, codes)
        counts = measured_layer_counts(small_fc_spec, encoded)
        assert counts.fdconv_ops == counts.sdconv_ops

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
