"""Winograd/spectral op-count models and the cycle-based scheme planner.

Two layers of guarantees:

- op-count level: the Winograd and spectral models report the analytic
  reductions and geometry predicates Figure 1's taxonomy rests on;
- planning level: ``plan_model_schemes`` ranks every registered scheme on
  predicted accelerator cycles, keeps paper-scale AlexNet and VGG16
  homogeneous ABM (the Figure 1 claim), gates non-ABM units by device
  fabric, honours the margin and the allowlist, and rejects bad input.
"""

import math

import pytest

from repro.baselines.spectral import spectral_ops, spectral_supported
from repro.baselines.winograd import (
    winograd_ops,
    winograd_reduction,
    winograd_supported,
)
from repro.core import conv_spec, fc_spec
from repro.dse.resources import DEFAULT_RESOURCE_MODEL, ResourceEstimate
from repro.dse.schemes import ModelSchemePlan, plan_model_schemes
from repro.hw.config import (
    PAPER_CONFIG_ALEXNET,
    PAPER_CONFIG_VGG16,
    AcceleratorConfig,
)
from repro.hw.device import get_device
from repro.workloads.synthetic import synthetic_model_workload

GXA7 = get_device("Stratix-V GXA7")
PAPER_CONFIGS = {"alexnet": PAPER_CONFIG_ALEXNET, "vgg16": PAPER_CONFIG_VGG16}

#: One accumulator per multiplier (N = 1) on a single small CU: the
#: reduced-multiply units out-cycle ABM on most VGG16 conv layers here,
#: so this config exercises enablement, the fabric gate and the margin.
MULT_RICH = AcceleratorConfig(n_cu=1, n_knl=8, n_share=1, s_ec=20, freq_mhz=204.0)


# ---- op-count models ------------------------------------------------------


class TestWinogradModel:
    def test_reduction_factors(self):
        # 9 multiplies per output become (m+2)^2 per m^2 outputs.
        assert winograd_reduction(2) == pytest.approx(9 * 4 / 16)
        assert winograd_reduction(4) == pytest.approx(9 * 16 / 36)

    def test_ops_fall_below_dense(self):
        spec = conv_spec(
            "c", in_channels=64, out_channels=64, kernel=3, stride=1,
            padding=1, in_rows=56, in_cols=56,
        )
        for tile in (2, 4):
            ops = winograd_ops(spec, tile=tile)
            assert ops.multiplies < spec.macs
            assert ops.total_ops < spec.dense_ops

    def test_supported_predicate(self):
        good = conv_spec("g", in_channels=8, out_channels=8, kernel=3,
                         stride=1, padding=1, in_rows=12, in_cols=12)
        strided = conv_spec("s", in_channels=8, out_channels=8, kernel=3,
                            stride=2, padding=1, in_rows=12, in_cols=12)
        five = conv_spec("f", in_channels=8, out_channels=8, kernel=5,
                         stride=1, padding=2, in_rows=12, in_cols=12)
        assert winograd_supported(good)
        assert not winograd_supported(strided)
        assert not winograd_supported(five)
        assert not winograd_supported(fc_spec("fc", 16, 8))


class TestSpectralModel:
    def test_supported_predicate(self):
        conv = conv_spec("c", in_channels=8, out_channels=8, kernel=5,
                         stride=2, padding=1, in_rows=12, in_cols=12)
        point = conv_spec("p", in_channels=8, out_channels=8, kernel=1,
                          stride=1, padding=0, in_rows=12, in_cols=12)
        assert spectral_supported(conv)
        assert not spectral_supported(point)
        assert not spectral_supported(fc_spec("fc", 16, 8))

    def test_ops_scale_with_fft_bins(self):
        small = conv_spec("s", in_channels=16, out_channels=16, kernel=3,
                          stride=1, padding=1, in_rows=8, in_cols=8)
        large = conv_spec("l", in_channels=16, out_channels=16, kernel=3,
                          stride=1, padding=1, in_rows=32, in_cols=32)
        assert spectral_ops(large).total_ops > spectral_ops(small).total_ops


# ---- planner --------------------------------------------------------------


@pytest.fixture(scope="module")
def vgg16():
    return synthetic_model_workload("vgg16", seed=1)


class TestSchemePlanner:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    @pytest.mark.parametrize("model", ["alexnet", "vgg16"])
    def test_paper_scale_stays_abm(self, model, seed):
        # Figure 1's point: 840 logic accumulators outrun the reduced-
        # multiply units on 210 shared multipliers, so every registered
        # scheme loses every layer on predicted cycles.
        workload = synthetic_model_workload(model, seed=seed)
        plan = plan_model_schemes(workload, PAPER_CONFIGS[model], device=GXA7)
        assert isinstance(plan, ModelSchemePlan)
        assert not plan.heterogeneous
        assert plan.predicted_speedup == pytest.approx(1.0)
        assert len(plan.decisions) == len(workload.layers)

    def test_every_registered_model_competes_on_cycles(self, vgg16):
        plan = plan_model_schemes(vgg16, PAPER_CONFIG_VGG16)
        conv = next(d for d in plan.decisions if d.layer == "conv3_1")
        assert set(conv.cycles) == {
            "abm", "sdconv", "fdconv", "spconv",
            "winograd2", "winograd4", "spectral",
        }
        assert conv.chosen_cycles == conv.abm_cycles
        assert conv.speedup == 1.0

    def test_no_device_enables_on_merit_alone(self, vgg16):
        plan = plan_model_schemes(vgg16, MULT_RICH)
        assert plan.rejected == ()
        assert plan.heterogeneous
        assert "winograd4" in plan.enabled
        assert plan.predicted_speedup > 1.1
        for decision in plan.decisions:
            assert decision.chosen_cycles <= decision.abm_cycles
            if decision.scheme != "abm":
                assert decision.speedup > 1.1  # cleared the 10% margin

    def test_fabric_gate_rejects_units_that_do_not_fit(self, vgg16):
        # The base design uses ~20.3% of the GXA7 logic; at a 21% budget
        # the F(4x4,3x3) transform trees (2600 ALMs per CU) no longer fit,
        # and cheaper runner-up units claim some of its layers instead.
        plan = plan_model_schemes(vgg16, MULT_RICH, device=GXA7, logic_limit=0.21)
        assert "winograd4" in plan.rejected
        assert "winograd4" not in plan.enabled
        assert {d.scheme for d in plan.decisions} <= {"abm", *plan.enabled}
        assert any("does not fit the fabric" in d.reason for d in plan.decisions)
        base = DEFAULT_RESOURCE_MODEL.estimate(MULT_RICH)
        total = ResourceEstimate(
            alms=base.alms + plan.overhead.alms,
            dsps=base.dsps + plan.overhead.dsps,
            m20ks=base.m20ks + plan.overhead.m20ks,
        )
        assert total.utilization(GXA7).fits(0.21)

    def test_huge_margin_keeps_abm(self, vgg16):
        plan = plan_model_schemes(vgg16, MULT_RICH, margin=10.0)
        assert not plan.heterogeneous

    def test_allowlist_restricts_candidates(self, vgg16):
        plan = plan_model_schemes(vgg16, MULT_RICH, schemes=("winograd2",))
        assert {d.scheme for d in plan.decisions} == {"abm", "winograd2"}
        assert all(set(d.cycles) <= {"abm", "winograd2"} for d in plan.decisions)

    def test_rejects_unknown_allowlist_name(self, vgg16):
        with pytest.raises(ValueError, match="'wavelet'"):
            plan_model_schemes(vgg16, MULT_RICH, schemes=("winograd2", "wavelet"))

    @pytest.mark.parametrize("margin", [-1.0, -1e-9, math.nan, math.inf])
    def test_rejects_bad_margin(self, vgg16, margin):
        with pytest.raises(ValueError, match="margin"):
            plan_model_schemes(vgg16, MULT_RICH, margin=margin)
