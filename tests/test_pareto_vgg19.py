"""Tests for the Pareto frontier and the VGG19 extension workload."""

import pytest

from repro.dse.explorer import sweep_sec_ncu
from repro.dse.pareto import FrontierSummary, pareto_frontier
from repro.dse.resources import DEFAULT_RESOURCE_MODEL
from repro.hw import (
    PAPER_CONFIG_VGG16,
    STRATIX_V_GXA7,
    AcceleratorSimulator,
)
from repro.prune import deep_compression_schedule
from repro.workloads import synthetic_model_workload


@pytest.fixture(scope="module")
def grid():
    workload = synthetic_model_workload("vgg16", seed=1)
    return sweep_sec_ncu(
        workload, STRATIX_V_GXA7, DEFAULT_RESOURCE_MODEL, n_knl=14, n_share=4
    )


class TestParetoFrontier:
    def test_frontier_is_nondominated(self, grid):
        frontier = pareto_frontier(grid)
        assert frontier
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                better_everywhere = (
                    b.throughput_gops >= a.throughput_gops
                    and b.resources.alms <= a.resources.alms
                    and b.resources.dsps <= a.resources.dsps
                    and b.resources.m20ks <= a.resources.m20ks
                )
                strictly = (
                    b.throughput_gops > a.throughput_gops
                    or b.resources.alms < a.resources.alms
                )
                assert not (better_everywhere and strictly)

    def test_best_throughput_on_frontier(self, grid):
        frontier = pareto_frontier(grid)
        feasible_best = max(
            (p for p in grid if p.feasible), key=lambda p: p.throughput_gops
        )
        assert frontier[0].throughput_gops == feasible_best.throughput_gops

    def test_only_feasible_points(self, grid):
        assert all(point.feasible for point in pareto_frontier(grid))

    def test_knee_and_render(self, grid):
        summary = FrontierSummary(pareto_frontier(grid))
        knee = summary.knee
        assert knee in summary.points
        assert "GOP/s" in summary.render()

    def test_empty_frontier_knee_raises(self):
        with pytest.raises(ValueError):
            FrontierSummary(()).knee


class TestVGG19Workload:
    def test_schedule_extends_vgg16(self):
        schedule = deep_compression_schedule("vgg19")
        assert schedule.density("conv3_4") == schedule.density("conv3_3")
        assert schedule.density("conv5_4") == schedule.density("conv5_3")
        assert schedule.density("fc6") == pytest.approx(0.04)

    def test_workload_builds_and_reduces(self):
        workload = synthetic_model_workload("vgg19", seed=1)
        reduction = workload.dense_ops / (2 * workload.accumulate_ops)
        # Extrapolated schedule keeps VGG16's ~3x MAC-reduction regime.
        assert 2.5 < reduction < 3.6

    def test_simulates_on_paper_config(self):
        workload = synthetic_model_workload("vgg19", seed=1)
        result = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7).simulate(
            workload
        )
        # Deeper model, same accumulate-bound architecture: throughput in
        # the same band as VGG16, inference proportionally slower.
        assert 662 < result.throughput_gops < 1052
        vgg16 = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7).simulate(
            synthetic_model_workload("vgg16", seed=1)
        )
        assert result.seconds_per_image > vgg16.seconds_per_image
