"""Exhaustive joint-space DSE: the search space, the cell evaluator, the oracle.

Pins the contracts of :mod:`repro.dse.joint_space`:

- the default joint space covers all seven axes and its size is the
  product of the axis lengths;
- the vectorized power/efficiency grids are float-identical to the
  per-point analytic power model;
- ``exhaustive_search`` scores the whole space, its winner is feasible
  and reproducible as a one-point search, and the seed-1 AlexNet / VGG16
  optima are pinned;
- a two-workload search is conservative: the joint optimum is no better
  than either workload alone at the same configuration;
- ``nondominated_mask`` keeps exactly the non-dominated points
  (hypothesis-checked against a pairwise oracle);
- the max-min joint exploration (``explore_joint``) serves both models
  from one shared configuration at near-solo performance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dse.compiled import compile_workload
from repro.dse.joint_space import (
    DEFAULT_OBJECTIVES,
    OBJECTIVE_DIRECTIONS,
    SearchSpace,
    default_joint_space,
    exhaustive_search,
)
from repro.dse.multi import explore_joint
from repro.dse.pareto import nondominated_mask
from repro.dse.resources import DEFAULT_RESOURCE_MODEL
from repro.hw import STRATIX_V_GXA7
from repro.hw.power import abm_power_analytic, analytic_energy_per_image
from repro.workloads import synthetic_model_workload


@pytest.fixture(scope="module")
def alexnet_workload():
    return synthetic_model_workload("alexnet", seed=1)


@pytest.fixture(scope="module")
def vgg_workload():
    return synthetic_model_workload("vgg16", seed=1)


@pytest.fixture(scope="module")
def alexnet_space(alexnet_workload):
    return default_joint_space([alexnet_workload])


@pytest.fixture(scope="module")
def alexnet_exhaustive(alexnet_workload, alexnet_space):
    return exhaustive_search(
        [alexnet_workload], STRATIX_V_GXA7, space=alexnet_space
    )


def _point_space(params):
    """A one-point joint space pinned at ``params``."""
    return SearchSpace(tuple((name, (value,)) for name, value in params.items()))


# ---------------------------------------------------------------------------
# SearchSpace
# ---------------------------------------------------------------------------


class TestSearchSpace:
    def test_size(self):
        space = SearchSpace((("a", (1, 2, 3)), ("b", (10, 20)), ("c", (5, 6, 7, 8))))
        assert space.size == 3 * 2 * 4
        assert space.names == ("a", "b", "c")
        assert space.values("b") == (10, 20)
        with pytest.raises(KeyError):
            space.values("d")

    def test_joint_space_has_all_axes(self, alexnet_space):
        assert set(alexnet_space.names) == {
            "n_knl", "s_ec", "n_cu", "n_share", "d_f", "d_w", "freq_mhz",
        }
        assert alexnet_space.size == 279_450

    def test_default_objectives_cover_paper_axes(self):
        assert DEFAULT_OBJECTIVES[0] == "throughput_gops"
        assert {"logic_util", "dsp_util", "mem_util", "total_power_w"} <= set(
            DEFAULT_OBJECTIVES
        )
        assert set(DEFAULT_OBJECTIVES) <= set(OBJECTIVE_DIRECTIONS)


# ---------------------------------------------------------------------------
# Vectorized power arrays: float-identical to per-point power
# ---------------------------------------------------------------------------


class TestPowerArrays:
    def test_grid_power_matches_per_point_reports(self, alexnet_workload):
        compiled = compile_workload(alexnet_workload, n_share=11)
        s_ec_values = (8, 16, 24)
        evaluation = compiled.evaluate_grid(
            alexnet_workload,
            DEFAULT_RESOURCE_MODEL,
            STRATIX_V_GXA7,
            n_knl_values=(8, 14),
            s_ec_values=s_ec_values,
            n_cu_values=(1, 2, 3),
        )
        assert evaluation.power_w.shape == evaluation.cycles_per_image.shape
        for i in range(2):
            for j in range(3):
                for k in range(3):
                    report = evaluation.power_report_at(i, j, k)
                    assert (
                        evaluation.power_w[i, j, k] == report.total_power_w
                    )
                    assert (
                        evaluation.gops_per_watt[i, j, k]
                        == report.gops_per_watt
                    )

    def test_grid_power_matches_abm_power_analytic(self, alexnet_workload):
        compiled = compile_workload(alexnet_workload, n_share=11)
        evaluation = compiled.evaluate_grid(
            alexnet_workload,
            DEFAULT_RESOURCE_MODEL,
            STRATIX_V_GXA7,
            n_knl_values=(14,),
            s_ec_values=(16,),
            n_cu_values=(2,),
            freq_mhz=200.0,
        )
        config = evaluation.config_at(0, 0, 0)
        seconds = float(evaluation.cycles_per_image[0, 0, 0]) / (200.0 * 1e6)
        report = abm_power_analytic(alexnet_workload, config, seconds)
        assert evaluation.power_w[0, 0, 0] == report.total_power_w
        assert evaluation.gops_per_watt[0, 0, 0] == report.gops_per_watt
        assert evaluation.energy_per_image_j[0] == analytic_energy_per_image(
            alexnet_workload, config
        )


# ---------------------------------------------------------------------------
# The exhaustive oracle
# ---------------------------------------------------------------------------


class TestExhaustiveSearch:
    def test_exhaustive_counts_the_whole_space(
        self, alexnet_space, alexnet_exhaustive
    ):
        assert alexnet_exhaustive.evaluated_points == alexnet_space.size

    def test_exhaustive_best_is_feasible_and_consistent(
        self, alexnet_workload, alexnet_exhaustive
    ):
        # Re-scoring the winner alone must give exactly the same values.
        params = alexnet_exhaustive.params
        assert tuple(params) == (
            "n_knl", "s_ec", "n_cu", "n_share", "d_f", "d_w", "freq_mhz",
        )
        alone = exhaustive_search(
            [alexnet_workload], STRATIX_V_GXA7, space=_point_space(params)
        )
        assert alone.params == params
        assert alone.values == alexnet_exhaustive.values
        assert set(alone.values) == set(DEFAULT_OBJECTIVES)

    def test_alexnet_optimum_is_pinned(self, alexnet_exhaustive):
        assert round(alexnet_exhaustive.values["throughput_gops"], 1) == 763.5

    def test_vgg16_optimum_is_pinned(self, vgg_workload):
        best = exhaustive_search(
            [vgg_workload],
            STRATIX_V_GXA7,
            space=default_joint_space([vgg_workload]),
        )
        assert round(best.values["throughput_gops"], 1) == 983.7

    def test_min_primary_objective(self, alexnet_workload):
        # A minimized primary draws no more power than the max-GOP/s point
        # of the same space.
        space = default_joint_space(
            [alexnet_workload], n_knl_values=(2, 14), n_cu_values=(1, 2)
        )
        fastest = exhaustive_search([alexnet_workload], STRATIX_V_GXA7, space=space)
        frugal = exhaustive_search(
            [alexnet_workload],
            STRATIX_V_GXA7,
            space=space,
            objectives=("total_power_w", "throughput_gops"),
        )
        assert set(frugal.values) == {"total_power_w", "throughput_gops"}
        assert frugal.values["total_power_w"] < fastest.values["total_power_w"]
        assert (
            frugal.values["throughput_gops"] < fastest.values["throughput_gops"]
        )

    def test_rejects_bad_space_and_objectives(self, alexnet_workload):
        with pytest.raises(ValueError, match="axes"):
            exhaustive_search(
                [alexnet_workload],
                STRATIX_V_GXA7,
                space=SearchSpace((("n_knl", (14,)),)),
            )
        with pytest.raises(ValueError, match="objectives"):
            exhaustive_search(
                [alexnet_workload],
                STRATIX_V_GXA7,
                space=default_joint_space([alexnet_workload]),
                objectives=("latency",),
            )


# ---------------------------------------------------------------------------
# Multi-workload co-deployment
# ---------------------------------------------------------------------------


class TestMultiWorkload:
    def test_joint_search_is_conservative(self, alexnet_workload, vgg_workload):
        workloads = [alexnet_workload, vgg_workload]
        space = default_joint_space(
            workloads, n_knl_values=(8, 14, 20), n_cu_values=(1, 2, 3)
        )
        joint = exhaustive_search(workloads, STRATIX_V_GXA7, space=space)
        # The joint point is feasible for each workload alone — and no
        # better than either workload evaluated alone at that point.
        for workload in workloads:
            solo = exhaustive_search(
                [workload], STRATIX_V_GXA7, space=_point_space(joint.params)
            )
            assert (
                joint.values["throughput_gops"]
                <= solo.values["throughput_gops"] + 1e-9
            )
            assert joint.values["mem_util"] >= solo.values["mem_util"] - 1e-12


# ---------------------------------------------------------------------------
# Non-dominated set invariant
# ---------------------------------------------------------------------------


def _dominates(a, b, directions):
    no_worse = all(
        (x >= y) if d == "max" else (x <= y) for x, y, d in zip(a, b, directions)
    )
    better = any(
        (x > y) if d == "max" else (x < y) for x, y, d in zip(a, b, directions)
    )
    return no_worse and better


class TestNondominatedMask:
    DIRECTIONS = ("max", "min")

    @settings(max_examples=50, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(1.0, 100.0, allow_nan=False),
                st.floats(1.0, 10.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_mask_is_exactly_the_nondominated_set(self, points):
        columns = [
            np.array([p[i] for p in points], dtype=np.float64) for i in range(2)
        ]
        mask = nondominated_mask(columns, self.DIRECTIONS)
        assert mask.shape == (len(points),)
        for i, point in enumerate(points):
            dominated = any(
                _dominates(other, point, self.DIRECTIONS) for other in points
            )
            assert bool(mask[i]) == (not dominated)
        # No survivor dominates another survivor.
        survivors = [p for p, keep in zip(points, mask) if keep]
        for a in survivors:
            for b in survivors:
                assert not _dominates(a, b, self.DIRECTIONS)


class TestJointExploration:
    @pytest.fixture(scope="class")
    def result(self):
        workloads = [
            synthetic_model_workload("alexnet", seed=1),
            synthetic_model_workload("vgg16", seed=1),
        ]
        return explore_joint(workloads, STRATIX_V_GXA7)

    def test_serves_both_models(self, result):
        assert set(result.models) == {"alexnet", "vgg16"}
        for model in result.models:
            assert result.chosen.throughput[model] > 0

    def test_maxmin_objective(self, result):
        """The chosen point's worst normalized throughput beats (or ties)
        every other jointly feasible candidate's."""
        for candidate in result.candidates:
            assert (
                result.candidates[0].worst_normalized
                >= candidate.worst_normalized - 1e-9
            )

    def test_near_solo_performance(self, result):
        """One shared bitstream costs each model only a modest slice."""
        for model in result.models:
            assert result.chosen.normalized[model] > 0.8

    def test_buffers_cover_both(self, result):
        # VGG16's FC6 needs the deepest FT-Buffer; the joint config must
        # carry it even if AlexNet alone would not.
        assert result.chosen.config.d_f * result.chosen.config.s_ec >= 25088

    def test_render(self, result):
        text = result.render()
        assert "joint exploration" in text
        assert "vgg16" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            explore_joint([], STRATIX_V_GXA7)
