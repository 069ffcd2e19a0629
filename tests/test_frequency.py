"""Tests for the congestion-limited frequency model."""

import pytest

from repro.dse.explorer import sweep_sec_ncu
from repro.dse.frequency import (
    DEFAULT_FREQUENCY_MODEL,
    FrequencyModel,
    refine_with_frequency,
)
from repro.dse.resources import DEFAULT_RESOURCE_MODEL
from repro.hw import STRATIX_V_GXA7
from repro.workloads import synthetic_model_workload


class TestFrequencyModel:
    def test_flat_below_knee(self):
        model = DEFAULT_FREQUENCY_MODEL
        assert model.fmax_mhz(0.3) == model.base_mhz
        assert model.fmax_mhz(model.knee) == model.base_mhz

    def test_calibrated_to_paper_point(self):
        """The implemented design closed at 202-204 MHz at 68-73% logic."""
        model = DEFAULT_FREQUENCY_MODEL
        assert model.fmax_mhz(0.70) == pytest.approx(203, abs=6)

    def test_monotone_degradation(self):
        model = DEFAULT_FREQUENCY_MODEL
        fs = [model.fmax_mhz(u) for u in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert all(a >= b for a, b in zip(fs, fs[1:]))

    def test_compile_failure(self):
        model = DEFAULT_FREQUENCY_MODEL
        assert not model.compiles(0.95)
        assert model.fmax_mhz(0.95) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyModel(knee=0.9, fail_utilization=0.8)
        with pytest.raises(ValueError):
            FrequencyModel(base_mhz=0.0)


class TestRefinement:
    @pytest.fixture(scope="class")
    def grid(self):
        workload = synthetic_model_workload("vgg16", seed=1)
        return sweep_sec_ncu(
            workload, STRATIX_V_GXA7, DEFAULT_RESOURCE_MODEL, n_knl=14, n_share=4
        )

    def test_refined_ranking_penalizes_congestion(self, grid):
        refined = refine_with_frequency(grid)
        # Delivered throughput never exceeds nominal * base/nominal ratio.
        for entry in refined:
            assert entry.delivered_gops <= entry.point.throughput_gops * (
                DEFAULT_FREQUENCY_MODEL.base_mhz / entry.point.config.freq_mhz
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
        model = FrequencyModel(fail_utilization=0.60)
        refined = refine_with_frequency(grid, model)
        for entry in refined:
            if entry.point.utilization.logic >= 0.60:
                assert not entry.compiles
                assert entry.delivered_gops == 0.0
