"""Exhaustive joint-space DSE: the search space, the cell evaluator, the oracle.

Pins the contracts of :mod:`repro.dse.joint_space`:

- the default joint space covers all seven axes and its size is the
  product of the axis lengths;
- the throughput and power grids the search derives at each clock are
  float-identical to the per-point performance and power models;
- ``exhaustive_search`` scores the whole space, its winner is feasible
  and reproducible as a one-point search, and the seed-1 AlexNet / VGG16
  optima are pinned;
- grouping the outer cells by (N, d_f) changes nothing: the search equals
  the best of one-cell searches, ties going to the first cell;
- a two-workload search is conservative: the joint optimum is no better
  than either workload alone at the same configuration;
- the max-min AlexNet + VGG16 co-deployment serves both models from one
  shared configuration at near-solo performance.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.dse.compiled import column_tables, compile_workload, throughput_and_power
from repro.dse.joint_space import (
    DEFAULT_OBJECTIVES,
    FREQ_VALUES,
    OBJECTIVE_DIRECTIONS,
    SearchSpace,
    default_joint_space,
    exhaustive_search,
)
from repro.dse.performance import MODE_QUANTIZED, estimate_model
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


def _narrowed(space, **axes):
    """``space`` with the named axes replaced by the given candidates."""
    return SearchSpace(
        tuple((name, axes.get(name, values)) for name, values in space.axes)
    )


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
        assert DEFAULT_OBJECTIVES == (
            "throughput_gops", "logic_util", "dsp_util", "mem_util", "total_power_w",
        )
        assert set(DEFAULT_OBJECTIVES) == set(OBJECTIVE_DIRECTIONS)


# ---------------------------------------------------------------------------
# Vectorized power arrays: float-identical to per-point power
# ---------------------------------------------------------------------------


class TestPowerArrays:
    def test_grid_power_matches_per_point_reports(self, alexnet_workload):
        """At every joint-space clock, the throughput and power the search
        derives from one cycle grid are the per-point models' at that clock."""
        compiled = compile_workload(alexnet_workload, n_share=11)
        evaluation = compiled.evaluate_grid(
            alexnet_workload,
            STRATIX_V_GXA7,
            n_knl_values=(8, 14),
            s_ec_values=(8, 16, 24),
            n_cu_values=(1, 2, 3),
        )
        energy = np.array(evaluation.energy_per_image_j)
        for freq_mhz in FREQ_VALUES:
            throughput, power_w = throughput_and_power(
                evaluation.cycles_per_image, freq_mhz, evaluation.dense_ops, energy
            )
            assert power_w.shape == evaluation.cycles_per_image.shape
            for index in np.ndindex(evaluation.shape):
                config = dataclasses.replace(
                    evaluation.config_at(*index), freq_mhz=freq_mhz
                )
                perf = estimate_model(alexnet_workload, config, mode=MODE_QUANTIZED)
                report = abm_power_analytic(
                    alexnet_workload, config, perf.seconds_per_image
                )
                assert throughput[index] == perf.throughput_gops
                assert power_w[index] == report.total_power_w

    def test_grid_power_matches_abm_power_analytic(self, alexnet_workload):
        compiled = compile_workload(alexnet_workload, n_share=11)
        evaluation = compiled.evaluate_grid(
            alexnet_workload,
            STRATIX_V_GXA7,
            n_knl_values=(14,),
            s_ec_values=(16,),
            n_cu_values=(2,),
            freq_mhz=200.0,
        )
        config = evaluation.config_at(0, 0, 0)
        seconds = float(evaluation.cycles_per_image[0, 0, 0]) / (200.0 * 1e6)
        report = abm_power_analytic(alexnet_workload, config, seconds)
        _, power_w = throughput_and_power(
            evaluation.cycles_per_image,
            200.0,
            evaluation.dense_ops,
            np.array(evaluation.energy_per_image_j),
        )
        assert power_w[0, 0, 0] == report.total_power_w
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

    def test_rejects_bad_space_and_objectives(self, alexnet_workload):
        with pytest.raises(ValueError, match="axes"):
            exhaustive_search(
                [alexnet_workload],
                STRATIX_V_GXA7,
                space=SearchSpace((("n_knl", (14,)),)),
            )


# ---------------------------------------------------------------------------
# The grouped search against its per-cell oracle
# ---------------------------------------------------------------------------


def _per_cell_search(workloads, space):
    """Best of one-outer-cell searches, each cell searched alone.

    Cells are visited in enumeration order (N, d_f, d_w, freq); a later
    cell must have strictly higher throughput to win, so ties go to the
    first cell.
    """
    best = None
    for n_share, d_f, d_w, freq_mhz in itertools.product(
        *(space.values(name) for name in ("n_share", "d_f", "d_w", "freq_mhz"))
    ):
        outer = {"n_share": n_share, "d_f": d_f, "d_w": d_w, "freq_mhz": freq_mhz}
        cell = SearchSpace(
            tuple(
                (name, (outer[name],) if name in outer else values)
                for name, values in space.axes
            )
        )
        try:
            found = exhaustive_search(workloads, STRATIX_V_GXA7, space=cell)
        except RuntimeError:  # no feasible point in this cell
            continue
        gops = found.values["throughput_gops"]
        if best is None or gops > best.values["throughput_gops"]:
            best = found
    return best


class TestGroupedSearch:
    """``exhaustive_search`` scores each (N, d_f) cycle grid once for all
    its (d_w, freq) cells; searching every cell alone must agree."""

    def test_alexnet_equals_per_cell_search(
        self, alexnet_workload, alexnet_space, alexnet_exhaustive
    ):
        oracle = _per_cell_search([alexnet_workload], alexnet_space)
        assert alexnet_exhaustive.params == oracle.params
        assert alexnet_exhaustive.values == oracle.values

    def test_co_deployment_equals_per_cell_search(
        self, alexnet_workload, vgg_workload
    ):
        workloads = [alexnet_workload, vgg_workload]
        space = _narrowed(
            default_joint_space(workloads),
            n_knl=(8, 14, 16, 20),
            n_cu=(1, 2, 3),
        )
        grouped = exhaustive_search(workloads, STRATIX_V_GXA7, space=space)
        oracle = _per_cell_search(workloads, space)
        assert grouped.params == oracle.params
        assert grouped.values == oracle.values

    def test_space_has_partly_plannable_d_f(self, alexnet_workload, alexnet_space):
        """The smallest AlexNet d_f plans only some S_ec columns, so the
        searches above cover cells with unplannable columns."""
        d_f = min(alexnet_space.values("d_f"))
        columns = [(d_f, s) for s in alexnet_space.values("s_ec")]
        plannable = [
            table is not None for table in column_tables(alexnet_workload, columns)
        ]
        assert any(plannable) and not all(plannable)

    def test_ties_keep_the_first_cell(
        self, alexnet_workload, alexnet_space, alexnet_exhaustive
    ):
        """d_w does not change throughput, so the feasible d_w candidates
        tie; the first in enumeration order wins either way round."""
        assert alexnet_exhaustive.params["d_w"] == 2048
        reversed_dw = SearchSpace(
            tuple(
                (name, values[::-1] if name == "d_w" else values)
                for name, values in alexnet_space.axes
            )
        )
        found = exhaustive_search(
            [alexnet_workload], STRATIX_V_GXA7, space=reversed_dw
        )
        assert found.params == {**alexnet_exhaustive.params, "d_w": 4096}
        assert (
            found.values["throughput_gops"]
            == alexnet_exhaustive.values["throughput_gops"]
        )


# ---------------------------------------------------------------------------
# Multi-workload co-deployment
# ---------------------------------------------------------------------------


class TestMultiWorkload:
    def test_joint_search_is_conservative(self, alexnet_workload, vgg_workload):
        workloads = [alexnet_workload, vgg_workload]
        space = _narrowed(
            default_joint_space(workloads), n_knl=(8, 14, 20), n_cu=(1, 2, 3)
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


class TestJointExploration:
    """``exhaustive_search([alexnet, vgg16])`` ranks the max-min
    co-deployment: one shared configuration, scored by its worst model."""

    @pytest.fixture(scope="class")
    def joint(self, alexnet_workload, vgg_workload):
        workloads = [alexnet_workload, vgg_workload]
        return exhaustive_search(
            workloads, STRATIX_V_GXA7, space=default_joint_space(workloads)
        )

    @pytest.fixture(scope="class")
    def at_joint(self, joint, alexnet_workload, vgg_workload):
        """Each model alone at the joint configuration."""
        return {
            w.name: exhaustive_search(
                [w], STRATIX_V_GXA7, space=_point_space(joint.params)
            )
            for w in (alexnet_workload, vgg_workload)
        }

    def test_serves_both_models(self, at_joint):
        assert set(at_joint) == {"alexnet", "vgg16"}
        for solo in at_joint.values():
            assert solo.values["throughput_gops"] > 0

    def test_maxmin_objective(self, joint, at_joint):
        """The joint score is the worst model's throughput at the point."""
        assert joint.values["throughput_gops"] == min(
            solo.values["throughput_gops"] for solo in at_joint.values()
        )

    def test_near_solo_performance(self, at_joint, alexnet_workload, vgg_workload):
        """One shared bitstream costs each model only a modest slice."""
        for workload in (alexnet_workload, vgg_workload):
            best = exhaustive_search(
                [workload],
                STRATIX_V_GXA7,
                space=default_joint_space([workload]),
            )
            shared = at_joint[workload.name].values["throughput_gops"]
            assert shared > 0.8 * best.values["throughput_gops"]

    def test_buffers_cover_both(self, joint):
        # VGG16's FC6 needs the deepest FT-Buffer; the joint config must
        # carry it even if AlexNet alone would not.
        assert joint.params["d_f"] * joint.params["s_ec"] >= 25088

    def test_empty_rejected(self, alexnet_space):
        with pytest.raises(ValueError):
            exhaustive_search([], STRATIX_V_GXA7, space=alexnet_space)
