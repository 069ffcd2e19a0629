"""Tests for the roofline and the exploration flow."""

import numpy as np
import pytest

from repro.core.schemes import ConvScheme
from repro.dse.explorer import (
    best_candidates,
    explore,
    optimal_nknl,
    size_buffers,
    sweep_nknl,
    sweep_sec_ncu,
)
from repro.dse.roofline import DesignPoint, RooflineModel
from repro.hw.device import STRATIX_V_GXA7
from repro.workloads import synthetic_model_workload


@pytest.fixture(scope="module")
def vgg_workload():
    return synthetic_model_workload("vgg16", seed=1)


class TestRoofline:
    @pytest.fixture
    def roofline(self):
        return RooflineModel(STRATIX_V_GXA7, freq_mhz=200.0)

    def test_fig1_roofs(self, roofline):
        roofs = {roof.scheme: roof.gops for roof in roofline.roofs()}
        assert roofs[ConvScheme.SDCONV] == pytest.approx(204.8)
        assert roofs[ConvScheme.FDCONV] == pytest.approx(675, rel=0.01)
        assert roofs[ConvScheme.ABM_SPCONV] == pytest.approx(1046, rel=0.01)

    def test_spconv_shares_fdconv_roof(self, roofline):
        assert roofline.roof_for(ConvScheme.SPCONV).gops == pytest.approx(
            roofline.roof_for(ConvScheme.FDCONV).gops
        )

    def test_headroom_and_render(self, roofline):
        point = DesignPoint("x", ConvScheme.FDCONV, 300.0)
        assert roofline.headroom(point) == pytest.approx(300 / 675.8, rel=0.01)
        text = roofline.render((point,))
        assert "fdconv" in text and "x" in text


class TestExplorationFlow:
    def test_nknl_optimum_in_paper_plateau(self, vgg_workload):
        """The paper picks 14; our models put the optimum in 11..15, with
        the DSP constraint capping the feasible range at 15."""
        points = sweep_nknl(
            vgg_workload, n_share=4, device=STRATIX_V_GXA7
        )
        best = optimal_nknl(points)
        assert 11 <= best <= 15
        feasible = [p.n_knl for p in points if p.feasible]
        assert max(feasible) == 15

    def test_nknl_boost_has_interior_maximum(self, vgg_workload):
        points = sweep_nknl(
            vgg_workload, n_share=4, device=STRATIX_V_GXA7
        )
        boosts = [p.normalized_boost for p in points if p.feasible]
        assert max(boosts) > boosts[0]  # overhead amortization helps early on

    def test_grid_constraints(self, vgg_workload):
        grid = sweep_sec_ncu(
            vgg_workload, STRATIX_V_GXA7, n_knl=14, n_share=4
        )
        for point in grid:
            if point.feasible:
                assert point.utilization.logic <= 0.75
                assert point.utilization.dsp <= 1.0
                assert point.utilization.memory <= 1.0
        assert any(p.feasible for p in grid)
        assert any(not p.feasible for p in grid)

    def test_paper_point_near_best(self, vgg_workload):
        """(S_ec=20, N_cu=3) must be feasible and within 10% of the best."""
        grid = sweep_sec_ncu(
            vgg_workload, STRATIX_V_GXA7, n_knl=14, n_share=4
        )
        paper = next(p for p in grid if p.s_ec == 20 and p.n_cu == 3)
        assert paper.feasible
        best = best_candidates(grid, count=1)[0]
        assert paper.throughput_gops >= 0.9 * best.throughput_gops

    def test_full_explore(self, vgg_workload):
        result = explore(vgg_workload, STRATIX_V_GXA7)
        assert result.n_share == 4
        assert 11 <= result.chosen_n_knl <= 15
        assert result.candidates
        assert result.chosen.n_cu >= 1
        assert result.performance.throughput_gops > 662  # beats FDConv [3]
        assert result.bandwidth.compute_bound

    def test_explore_result_carries_seed(self, vgg_workload):
        assert explore(vgg_workload, STRATIX_V_GXA7, seed=5).seed == 5
        assert explore(vgg_workload, STRATIX_V_GXA7).seed is None

    def test_buffer_sizing_matches_paper_vgg(self, vgg_workload):
        """D_w=2048 and D_q=128 are the paper's VGG16 depths."""
        buffers = size_buffers(vgg_workload, s_ec=20)
        assert buffers.d_w == 2048
        assert buffers.d_q == 128
        assert buffers.d_f >= 25088 // 20  # FC6 input must fit

    def test_explore_infeasible_device_raises(self, vgg_workload):
        from repro.hw.device import FPGADevice

        tiny = FPGADevice("tiny", alms=5000, dsps=4, m20k_blocks=8, bandwidth_gbs=1.0)
        with pytest.raises((RuntimeError, ValueError)):
            explore(vgg_workload, tiny)

    def test_explore_zero_work_raises(self, vgg_workload):
        """Every weight pruned: a named error, not a division by zero."""
        from repro.hw.workload import ModelWorkload, workload_from_arrays

        empty = ModelWorkload(
            "empty",
            tuple(
                workload_from_arrays(
                    layer.spec,
                    np.zeros_like(layer.nonzeros),
                    np.zeros_like(layer.distinct),
                )
                for layer in vgg_workload.layers
            ),
        )
        with pytest.raises(ValueError, match="'empty' has no nonzero weights"):
            explore(empty, STRATIX_V_GXA7)
