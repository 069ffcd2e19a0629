"""Tests for the congestion-limited frequency model."""

import pytest

from repro.dse.explorer import sweep_sec_ncu
import numpy as np

from repro.dse.frequency import (
    BASE_MHZ,
    FAIL_UTILIZATION,
    KNEE,
    SLOPE_MHZ,
    fmax_mhz,
    fmax_mhz_array,
    refine_with_frequency,
)
from repro.hw import STRATIX_V_GXA7
from repro.workloads import synthetic_model_workload


class TestFrequencyModel:
    def test_flat_below_knee(self):
        assert fmax_mhz(0.3) == BASE_MHZ
        assert fmax_mhz(KNEE) == BASE_MHZ

    def test_calibrated_to_paper_point(self):
        """The implemented design closed at 202-204 MHz at 68-73% logic."""
        assert fmax_mhz(0.70) == pytest.approx(203, abs=6)

    def test_monotone_degradation(self):
        fs = [fmax_mhz(u) for u in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert all(a >= b for a, b in zip(fs, fs[1:]))

    def test_compile_failure(self):
        assert fmax_mhz(0.95) == 0.0
        assert fmax_mhz(FAIL_UTILIZATION) == 0.0

    def test_validation(self):
        """The calibrated constants keep the model's shape: a flat region,
        then a non-negative slope, then a compile failure."""
        assert 0.0 < KNEE < FAIL_UTILIZATION <= 1.0
        assert BASE_MHZ > 0 and SLOPE_MHZ >= 0

    def test_array_matches_scalar(self):
        util = np.array([0.0, 0.3, KNEE, 0.6, 0.7, 0.91, FAIL_UTILIZATION, 0.95, 3.0])
        assert fmax_mhz_array(util).tolist() == [fmax_mhz(u) for u in util]


class TestRefinement:
    @pytest.fixture(scope="class")
    def grid(self):
        workload = synthetic_model_workload("vgg16", seed=1)
        return sweep_sec_ncu(
            workload, STRATIX_V_GXA7, n_knl=14, n_share=4
        )

    def test_refined_ranking_penalizes_congestion(self, grid):
        refined = refine_with_frequency(grid)
        # Delivered throughput never exceeds nominal * base/nominal ratio.
        for entry in refined:
            assert entry.delivered_gops <= entry.point.throughput_gops * (
                BASE_MHZ / entry.point.config.freq_mhz
            ) + 1e-9

    def test_sorted_descending(self, grid):
        refined = refine_with_frequency(grid)
        delivered = [r.delivered_gops for r in refined]
        assert delivered == sorted(delivered, reverse=True)

    def test_paper_point_survives_refinement(self, grid):
        """(20, 3) remains a top-5 candidate at delivered frequency."""
        refined = refine_with_frequency([p for p in grid if p.feasible])
        top = [(r.point.s_ec, r.point.n_cu) for r in refined[:5]]
        assert (20, 3) in top

    def test_overcongested_points_drop_out(self, grid):
        refined = refine_with_frequency(grid)
        failed = [
            entry
            for entry in refined
            if entry.point.utilization.logic >= FAIL_UTILIZATION
        ]
        assert failed
        for entry in failed:
            assert entry.fmax_mhz == 0.0
            assert entry.delivered_gops == 0.0
