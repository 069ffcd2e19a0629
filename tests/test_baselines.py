"""Tests for the baseline scheme op-count models and published designs."""

import numpy as np
import pytest

from repro.baselines.fdconv import FDConvModel, OaAModel
from repro.baselines.published import get_baseline, published_accelerators
from repro.baselines.sdconv import SDConvModel, sdconv_ops
from repro.baselines.spconv import SpConvModel, spconv_ops
from repro.core.abm import ConvGeometry, abm_conv2d
from repro.core.encoding import encode_layer
from repro.core.specs import conv_spec
from repro.hw.workload import workload_from_encoded
from tests.conftest import sparse_weight_codes


def _layer(rng, density, groups=1):
    """A 6->4 channel 3x3 layer on an 8x8 input: its workload (the models'
    input) and its measured ABM execution."""
    weights = sparse_weight_codes(rng, shape=(4, 6 // groups, 3, 3), density=density)
    features = rng.integers(-8, 8, size=(6, 8, 8))
    encoded = encode_layer("t", weights)
    spec = conv_spec("t", 6, 4, kernel=3, in_rows=8, in_cols=8, groups=groups)
    abm = abm_conv2d(features, encoded, ConvGeometry(kernel=3, groups=groups))
    return weights, workload_from_encoded(spec, encoded), abm


class TestSDConv:
    def test_op_count_is_dense(self, rng):
        weights, workload, _ = _layer(rng, density=0.2)
        ops = SDConvModel().layer_ops(workload)
        pixels = 6 * 6
        assert ops.multiplies == weights.size * pixels  # zeros still cost
        assert ops.accumulates == ops.multiplies

    def test_spec_ops(self, small_conv_spec):
        assert sdconv_ops(small_conv_spec) == small_conv_spec.dense_ops


class TestSpConv:
    def test_ops_scale_with_nnz(self, rng):
        weights, workload, _ = _layer(rng, density=0.3)
        ops = SpConvModel().layer_ops(workload)
        pixels = 6 * 6
        assert ops.multiplies == pytest.approx(np.count_nonzero(weights) * pixels)

    def test_grouped(self, rng):
        """Grouped layers count only each group's own input channels."""
        weights, workload, abm = _layer(rng, density=0.4, groups=2)
        ops = SpConvModel().layer_ops(workload)
        pixels = 6 * 6
        assert ops.multiplies == pytest.approx(np.count_nonzero(weights) * pixels)
        assert ops.accumulates == pytest.approx(abm.accumulate_ops)

    def test_spec_ops(self, small_conv_spec):
        assert spconv_ops(small_conv_spec, 0.5) == small_conv_spec.macs

    def test_more_ops_than_abm(self, rng):
        """SpConv always spends >= ABM ops (the paper's 50% claim)."""
        _, workload, abm = _layer(rng, density=0.4)
        sparse = SpConvModel().layer_ops(workload)
        assert abm.total_ops <= sparse.total_ops
        assert abm.accumulate_ops == pytest.approx(sparse.accumulates)  # same additions


class TestFDConv:
    def test_rejects_groups(self):
        """OaA FDConv has no grouped form; the model declines such layers."""
        model = FDConvModel()
        assert model.supports(conv_spec("c", 8, 8, kernel=3, in_rows=8, in_cols=8))
        assert not model.supports(
            conv_spec("g", 8, 8, kernel=3, in_rows=8, in_cols=8, groups=2)
        )

    def test_oaa_calibrated_to_paper(self):
        """K=3, t=4 must give [3]'s published 3.3x reduction."""
        assert OaAModel().reduction(3) == pytest.approx(3.3, rel=0.01)

    def test_oaa_fc_gains_nothing(self, small_fc_spec):
        assert OaAModel().layer_ops(small_fc_spec) == small_fc_spec.dense_ops

    def test_oaa_stride_erodes_gain(self):
        model = OaAModel()
        assert model.reduction(11, stride=4) < model.reduction(11, stride=1)

    def test_oaa_never_below_one(self):
        assert OaAModel().reduction(2, stride=4) == 1.0

    def test_oaa_layer_ops(self):
        spec = conv_spec("c", 8, 8, kernel=3, in_rows=8, in_cols=8, padding=1)
        assert OaAModel().layer_ops(spec) == pytest.approx(spec.dense_ops / 3.3, rel=0.01)


class TestPublished:
    def test_all_columns_present(self):
        assert len(published_accelerators()) == 8

    def test_filter_by_cnn(self):
        vgg = published_accelerators(cnn="vgg16")
        assert all(acc.column.cnn == "vgg16" for acc in vgg)
        assert len(vgg) == 4

    def test_filter_by_scheme(self):
        fd = published_accelerators(scheme="FDConv")
        assert {acc.key for acc in fd} == {"aydonat-alexnet", "zeng-alexnet", "zeng-vgg16"}

    def test_perf_density_matches_paper(self):
        """Table 2's density row: [3] VGG16 2.58, proposed 4.29."""
        assert get_baseline("zeng-vgg16").perf_density == pytest.approx(2.58, rel=0.01)
        assert get_baseline("proposed-vgg16").perf_density == pytest.approx(4.29, rel=0.01)

    def test_published_speedup(self):
        """The paper's headline: 1.55x over [3] on VGG16."""
        proposed = get_baseline("proposed-vgg16")
        zeng = get_baseline("zeng-vgg16")
        assert proposed.speedup_over(zeng) == pytest.approx(1.55, rel=0.01)

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_baseline("nope")
