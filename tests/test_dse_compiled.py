"""Differential tests: compiled whole-grid DSE vs the per-point oracle.

The compiled evaluator (`repro.dse.compiled`) and the sweeps built on it
must be *float-identical*, point for point, to the per-point oracle —
`estimate_model` plus `ResourceModel.estimate` on each point's
configuration: same cycles, same throughput, same bound labels, same
resource estimates, same feasibility, same chosen configuration — across
models, modes, conv+FC layers and degenerate grids. These tests pin that
contract with the paper workloads and with hypothesis-random synthetic
ones.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.specs import conv_spec, fc_spec
from repro.dse.compiled import compile_workload, steps_total_closed_form
from repro.dse.explorer import (
    best_candidates,
    explore,
    optimal_nknl,
    size_buffers,
    sweep_nknl,
    sweep_sec_ncu,
)
from repro.dse.multi import explore_joint
from repro.dse.pareto import pareto_frontier, pareto_frontier_reference
from repro.dse.performance import (
    MODE_IDEAL,
    MODE_QUANTIZED,
    estimate_model,
    share_factor_from_workloads,
)
from repro.dse.resources import DEFAULT_RESOURCE_MODEL
from repro.dse.compiled import CompiledWorkload, _compiled
from repro.dse.explorer import BufferSizing, GridPoint, _buffers
from repro.dse.resources import ResourceEstimate, ResourceUtilization
from repro.hw.config import AcceleratorConfig
from repro.hw.device import STRATIX_V_GXA7
from repro.hw.tiling import plan_windows
from repro.hw.device import FPGADevice
from repro.hw.power import EnergyModel, abm_power_analytic
from repro.hw.tiling import plan_layer_windows
from repro.hw.workload import ModelWorkload, workload_from_arrays
from repro.workloads import synthetic_model_workload

TINY_DEVICE = FPGADevice("tiny", alms=5000, dsps=4, m20k_blocks=8, bandwidth_gbs=1.0)


@pytest.fixture(scope="module")
def vgg_workload():
    return synthetic_model_workload("vgg16", seed=1)


@pytest.fixture(scope="module")
def alexnet_workload():
    return synthetic_model_workload("alexnet", seed=1)


def point_config(workload, n_knl, n_share, s_ec, n_cu):
    """The configuration a sweep visits at one point (200 MHz)."""
    buffers = size_buffers(workload, s_ec)
    return AcceleratorConfig(
        n_cu=n_cu,
        n_knl=n_knl,
        n_share=n_share,
        s_ec=s_ec,
        d_f=buffers.d_f,
        d_w=buffers.d_w,
        d_q=buffers.d_q,
    )


def per_point_gops(workload, config):
    return estimate_model(workload, config, mode=MODE_QUANTIZED).throughput_gops


def assert_nknl_per_point(
    points,
    workload,
    n_share,
    device=None,
    n_knl_range=tuple(range(2, 25)),
    s_ec=20,
    n_cu=3,
):
    """Every Figure 6 point is the per-point oracle's; boosts are relative
    to the sweep's first point."""
    assert [p.n_knl for p in points] == list(n_knl_range)
    for point in points:
        config = point_config(workload, point.n_knl, n_share, s_ec, n_cu)
        estimate = DEFAULT_RESOURCE_MODEL.estimate(config)
        assert point.throughput_gops == per_point_gops(workload, config)
        assert point.logic_alms == estimate.alms
        assert point.feasible == (
            device is None or estimate.utilization(device).fits(0.75)
        )
        first = points[0]
        assert point.normalized_boost == (
            point.throughput_gops / first.throughput_gops
        ) / (point.logic_alms / float(first.logic_alms))


def assert_grid_per_point(
    points,
    workload,
    device,
    n_knl,
    n_share,
    s_ec_range=tuple(range(4, 33, 2)),
    n_cu_range=tuple(range(1, 7)),
):
    """Every Figure 7 point, in N_cu-outer / S_ec-inner order, is the
    per-point oracle's."""
    assert [(p.n_cu, p.s_ec) for p in points] == [
        (n_cu, s_ec) for n_cu in n_cu_range for s_ec in s_ec_range
    ]
    for point in points:
        config = point_config(workload, n_knl, n_share, point.s_ec, point.n_cu)
        estimate = DEFAULT_RESOURCE_MODEL.estimate(config)
        utilization = estimate.utilization(device)
        assert point.config == config
        assert point.throughput_gops == per_point_gops(workload, config)
        assert point.resources == estimate
        assert point.utilization == utilization
        assert point.feasible == utilization.fits(0.75)


# ---------------------------------------------------------------------------
# Pinned paper workloads: the sweeps and the whole flow must be identical.
# ---------------------------------------------------------------------------


class TestPaperWorkloadsIdentical:
    @pytest.mark.parametrize("model", ["alexnet", "vgg16"])
    def test_sweep_nknl_identical(self, model):
        workload = synthetic_model_workload(model, seed=1)
        points = sweep_nknl(
            workload, DEFAULT_RESOURCE_MODEL, n_share=4, device=STRATIX_V_GXA7
        )
        assert_nknl_per_point(points, workload, 4, device=STRATIX_V_GXA7)

    @pytest.mark.parametrize("model", ["alexnet", "vgg16"])
    def test_sweep_sec_ncu_identical(self, model):
        workload = synthetic_model_workload(model, seed=1)
        points = sweep_sec_ncu(
            workload, STRATIX_V_GXA7, DEFAULT_RESOURCE_MODEL, n_knl=14, n_share=4
        )
        assert_grid_per_point(points, workload, STRATIX_V_GXA7, n_knl=14, n_share=4)

    def test_explore_identical(self, vgg_workload):
        result = explore(vgg_workload, STRATIX_V_GXA7)
        assert result.n_share == share_factor_from_workloads(vgg_workload.layers)
        nknl = list(result.nknl_sweep)
        assert_nknl_per_point(nknl, vgg_workload, result.n_share, device=STRATIX_V_GXA7)
        assert result.chosen_n_knl == optimal_nknl(nknl)
        grid = list(result.grid)
        assert_grid_per_point(
            grid,
            vgg_workload,
            STRATIX_V_GXA7,
            n_knl=result.chosen_n_knl,
            n_share=result.n_share,
        )
        assert list(result.candidates) == best_candidates(grid)
        best = best_candidates(grid)[0].config
        assert (result.chosen.s_ec, result.chosen.n_cu) == (best.s_ec, best.n_cu)
        assert result.performance == estimate_model(
            vgg_workload, result.chosen, mode=MODE_QUANTIZED
        )

    def test_explore_joint_identical(self, alexnet_workload, vgg_workload):
        workloads = [alexnet_workload, vgg_workload]
        result = explore_joint(workloads, STRATIX_V_GXA7)
        n_share = min(share_factor_from_workloads(w.layers) for w in workloads)
        grids = {
            w.name: sweep_sec_ncu(
                w, STRATIX_V_GXA7, DEFAULT_RESOURCE_MODEL, n_knl=14, n_share=n_share
            )
            for w in workloads
        }
        for name, grid in grids.items():
            assert result.best_single[name] == max(
                p.throughput_gops for p in grid if p.feasible
            )
        # Every candidate's per-model figure is the per-point oracle's.
        for candidate in result.candidates:
            for workload in workloads:
                point = next(
                    p
                    for p in grids[workload.name]
                    if (p.s_ec, p.n_cu)
                    == (candidate.config.s_ec, candidate.config.n_cu)
                )
                assert point.feasible
                assert candidate.throughput[workload.name] == per_point_gops(
                    workload, point.config
                )

    def test_best_candidates_identical(self, vgg_workload):
        """The candidate set is the top five feasible points ranked by the
        per-point oracle's throughput."""
        grid = sweep_sec_ncu(
            vgg_workload, STRATIX_V_GXA7, DEFAULT_RESOURCE_MODEL, n_knl=14, n_share=4
        )
        ranked = sorted(
            (p for p in grid if p.feasible),
            key=lambda p: -per_point_gops(vgg_workload, p.config),
        )
        assert [p.config for p in best_candidates(grid)] == [
            p.config for p in ranked[:5]
        ]


# ---------------------------------------------------------------------------
# Degenerate grids.
# ---------------------------------------------------------------------------


class TestDegenerateGrids:
    def test_single_point_grid(self, alexnet_workload):
        kwargs = dict(s_ec_range=(20,), n_cu_range=(3,))
        points = sweep_sec_ncu(
            alexnet_workload,
            STRATIX_V_GXA7,
            DEFAULT_RESOURCE_MODEL,
            n_knl=14,
            n_share=4,
            **kwargs,
        )
        assert len(points) == 1
        assert_grid_per_point(
            points, alexnet_workload, STRATIX_V_GXA7, n_knl=14, n_share=4, **kwargs
        )

    def test_single_point_nknl(self, alexnet_workload):
        points = sweep_nknl(
            alexnet_workload,
            DEFAULT_RESOURCE_MODEL,
            n_share=4,
            device=STRATIX_V_GXA7,
            n_knl_range=(14,),
        )
        assert len(points) == 1
        assert_nknl_per_point(
            points, alexnet_workload, 4, device=STRATIX_V_GXA7, n_knl_range=(14,)
        )
        assert points[0].normalized_boost == 1.0

    def test_empty_nknl_range(self, alexnet_workload):
        assert (
            sweep_nknl(
                alexnet_workload,
                DEFAULT_RESOURCE_MODEL,
                n_share=4,
                n_knl_range=(),
            )
            == []
        )

    def test_all_infeasible_grid(self, alexnet_workload):
        points = sweep_sec_ncu(
            alexnet_workload, TINY_DEVICE, DEFAULT_RESOURCE_MODEL, n_knl=14, n_share=4
        )
        assert_grid_per_point(points, alexnet_workload, TINY_DEVICE, n_knl=14, n_share=4)
        assert not any(point.feasible for point in points)

    def test_all_infeasible_explore_raises_both_paths(self, alexnet_workload):
        with pytest.raises((RuntimeError, ValueError)):
            explore(alexnet_workload, TINY_DEVICE)
        nknl = sweep_nknl(
            alexnet_workload, DEFAULT_RESOURCE_MODEL, n_share=4, device=TINY_DEVICE
        )
        with pytest.raises(ValueError):
            optimal_nknl(nknl)

    def test_no_device_marks_everything_feasible(self, alexnet_workload):
        points = sweep_nknl(alexnet_workload, DEFAULT_RESOURCE_MODEL, n_share=4)
        assert_nknl_per_point(points, alexnet_workload, 4)
        assert all(point.feasible for point in points)


# ---------------------------------------------------------------------------
# Hypothesis: random synthetic workloads, both modes, conv + FC layers.
# ---------------------------------------------------------------------------


@st.composite
def layer_workload(draw, index: int = 0):
    if draw(st.booleans()):
        spec = fc_spec(
            f"fc{index}", draw(st.integers(1, 64)), draw(st.integers(1, 10))
        )
    else:
        kernel = draw(st.integers(1, 3))
        spec = conv_spec(
            f"conv{index}",
            draw(st.integers(1, 6)),
            draw(st.integers(1, 10)),
            kernel=kernel,
            in_rows=draw(st.integers(kernel, 9)),
            in_cols=draw(st.integers(kernel, 9)),
            stride=draw(st.integers(1, 2)),
            padding=draw(st.integers(0, 1)),
        )
    limit = spec.weights_per_kernel
    nonzeros = draw(
        st.lists(
            st.integers(0, limit),
            min_size=spec.out_channels,
            max_size=spec.out_channels,
        )
    )
    distinct = [draw(st.integers(0, n)) for n in nonzeros]
    return workload_from_arrays(spec, nonzeros, distinct)


@st.composite
def model_workload(draw):
    count = draw(st.integers(1, 3))
    layers = tuple(draw(layer_workload(index=i)) for i in range(count))
    # All-zero workloads make the reference raise ZeroDivisionError on the
    # throughput; keep at least one real kernel (as any encoded model has).
    if not any(layer.nonzeros.any() for layer in layers):
        first = layers[0]
        patched = workload_from_arrays(
            first.spec,
            np.maximum(first.nonzeros, 1),
            np.maximum(first.distinct, 1),
        )
        layers = (patched,) + layers[1:]
    return ModelWorkload(name="hyp", layers=layers)


grid_axes = st.tuples(
    st.lists(st.integers(1, 18), min_size=1, max_size=2, unique=True),
    st.lists(st.integers(1, 24), min_size=1, max_size=2, unique=True),
    st.lists(st.integers(1, 5), min_size=1, max_size=2, unique=True),
)


class TestHypothesisDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        workload=model_workload(),
        n_share=st.integers(1, 6),
        axes=grid_axes,
        mode=st.sampled_from([MODE_QUANTIZED, MODE_IDEAL]),
        use_device=st.booleans(),
    )
    def test_grid_matches_per_point_model(
        self, workload, n_share, axes, mode, use_device
    ):
        n_knl_values, s_ec_values, n_cu_values = axes
        device = STRATIX_V_GXA7 if use_device else None
        evaluation = compile_workload(workload, n_share).evaluate_grid(
            workload,
            DEFAULT_RESOURCE_MODEL,
            device=device,
            n_knl_values=n_knl_values,
            s_ec_values=s_ec_values,
            n_cu_values=n_cu_values,
            mode=mode,
        )
        for i in range(len(n_knl_values)):
            for j in range(len(s_ec_values)):
                for k in range(len(n_cu_values)):
                    config = evaluation.config_at(i, j, k)
                    perf = estimate_model(workload, config, mode=mode)
                    assert (
                        evaluation.cycles_per_image[i, j, k] == perf.cycles_per_image
                    )
                    assert (
                        evaluation.throughput_gops[i, j, k] == perf.throughput_gops
                    )
                    assert evaluation.layer_bounds == tuple(
                        layer.bound for layer in perf.layers
                    )
                    estimate = DEFAULT_RESOURCE_MODEL.estimate(config)
                    assert evaluation.estimate_at(i, j, k) == estimate
                    if device is None:
                        assert evaluation.utilization_at(i, j, k) is None
                        assert bool(evaluation.feasible[i, j, k])
                    else:
                        utilization = estimate.utilization(device)
                        assert evaluation.utilization_at(i, j, k) == utilization
                        assert bool(evaluation.feasible[i, j, k]) == utilization.fits(
                            evaluation.logic_limit
                        )

    @settings(max_examples=25, deadline=None)
    @given(workload=model_workload(), n_share=st.integers(1, 5))
    def test_sweeps_match_reference(self, workload, n_share):
        """Both sweeps are the per-point oracle's, point for point."""
        kwargs = dict(n_knl_range=(1, 3, 7), s_ec=6, n_cu=2)
        points = sweep_nknl(
            workload, DEFAULT_RESOURCE_MODEL, n_share, device=STRATIX_V_GXA7, **kwargs
        )
        assert_nknl_per_point(points, workload, n_share, STRATIX_V_GXA7, **kwargs)
        grid_kwargs = dict(s_ec_range=(2, 9), n_cu_range=(1, 4))
        grid = sweep_sec_ncu(
            workload,
            STRATIX_V_GXA7,
            DEFAULT_RESOURCE_MODEL,
            n_knl=5,
            n_share=n_share,
            **grid_kwargs,
        )
        assert_grid_per_point(
            grid, workload, STRATIX_V_GXA7, n_knl=5, n_share=n_share, **grid_kwargs
        )

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 4),  # throughput bucket (ties on purpose)
                st.integers(0, 3),  # alms
                st.integers(0, 3),  # dsps
                st.integers(0, 3),  # m20ks
                st.booleans(),  # feasible
            ),
            min_size=0,
            max_size=40,
        )
    )
    def test_pareto_matches_reference_on_random_grids(self, data):
        config = AcceleratorConfig(n_cu=1, n_knl=1, n_share=1, s_ec=1)
        utilization = ResourceUtilization(logic=0.5, dsp=0.5, memory=0.5)
        grid = [
            GridPoint(
                config=config,
                throughput_gops=float(t) / 2.0,
                resources=ResourceEstimate(alms=a, dsps=d, m20ks=m),
                utilization=utilization,
                feasible=feasible,
            )
            for t, a, d, m, feasible in data
        ]
        assert pareto_frontier(grid) == pareto_frontier_reference(grid)


# ---------------------------------------------------------------------------
# The closed-form window-step sum vs the reference per-window loop.
# ---------------------------------------------------------------------------


class TestStepsClosedForm:
    @pytest.mark.parametrize("model", ["alexnet", "vgg16"])
    @pytest.mark.parametrize("s_ec", [4, 20, 31])
    def test_matches_window_loop(self, model, s_ec):
        import math

        workload = synthetic_model_workload(model, seed=1)
        buffers = size_buffers(workload, s_ec)
        for layer in workload.layers:
            plan = plan_layer_windows(layer.spec, buffers.d_f, s_ec)
            expected = 0
            for window_index in range(plan.windows):
                row_tile, col_tile = divmod(window_index, plan.g_c)
                rows = min(
                    plan.window_rows,
                    layer.spec.out_rows - row_tile * plan.window_rows,
                )
                cols = min(
                    plan.window_cols,
                    layer.spec.out_cols - col_tile * plan.window_cols,
                )
                expected += math.ceil(rows * cols / s_ec)
            steps, batch = steps_total_closed_form(layer.spec, buffers.d_f, s_ec)
            assert steps == expected
            assert batch == plan.batch_images


# ---------------------------------------------------------------------------
# Caches: size_buffers memo, window-plan LRU, compiled-workload memo.
# ---------------------------------------------------------------------------


class TestCaches:
    def test_size_buffers_memoized_per_identity(self, alexnet_workload):
        _buffers.clear()
        first = size_buffers(alexnet_workload, 20)
        assert size_buffers(alexnet_workload, 20) is first
        assert len(_buffers) == 1
        assert size_buffers(alexnet_workload, 16) is not first
        assert len(_buffers) == 2
        # A content-equal copy is a different identity: recomputed, equal.
        copy = ModelWorkload(name=alexnet_workload.name, layers=alexnet_workload.layers)
        assert size_buffers(copy, 20) == first

    def test_window_plans_shared_across_configs(self, alexnet_workload):
        spec = alexnet_workload.layers[0].spec
        a = AcceleratorConfig(n_cu=1, n_knl=4, n_share=2, s_ec=20, d_f=1568)
        b = AcceleratorConfig(n_cu=6, n_knl=16, n_share=4, s_ec=20, d_f=1568)
        assert plan_windows(spec, a) is plan_windows(spec, b)

    def test_compiled_workload_memoized(self, alexnet_workload):
        assert compile_workload(alexnet_workload, 4) is compile_workload(
            alexnet_workload, 4
        )
        assert compile_workload(alexnet_workload, 2) is not compile_workload(
            alexnet_workload, 4
        )

    def test_group_max_sums_match_reference_reduction(self, vgg_workload):
        compiled = compile_workload(vgg_workload, 4)
        for n_knl in (1, 3, 14, 23):
            sums = compiled.group_max_sums(n_knl)
            for index, layer in enumerate(vgg_workload.layers):
                engine = np.maximum(layer.nonzeros, layer.distinct * 4)
                groups = -(-len(engine) // n_knl)
                pad = groups * n_knl - len(engine)
                if pad:
                    engine = np.concatenate(
                        [engine, np.zeros(pad, dtype=engine.dtype)]
                    )
                order = np.sort(engine)[::-1]
                expected = float(order.reshape(groups, n_knl).max(axis=1).sum())
                assert sums[index] == expected

    def test_evaluate_grid_rejects_unknown_mode(self, alexnet_workload):
        compiled = compile_workload(alexnet_workload, 4)
        with pytest.raises(ValueError):
            compiled.evaluate_grid(
                alexnet_workload,
                DEFAULT_RESOURCE_MODEL,
                n_knl_values=(14,),
                s_ec_values=(20,),
                n_cu_values=(3,),
                mode="exact",
            )


# ---------------------------------------------------------------------------
# Column tables: warm per-(d_f, S_ec) tables equal a cold compile and the
# per-point model, exactly.
# ---------------------------------------------------------------------------

GRID_ARRAYS = ("cycles_per_image", "throughput_gops", "power_w", "gops_per_watt")


def _assert_grids_identical(a, b):
    for name in GRID_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.energy_per_image_j == b.energy_per_image_j


class TestColumnTables:
    AXES = dict(n_knl_values=(4, 14), s_ec_values=(8, 20), n_cu_values=(1, 3))

    def _evaluate(self, compiled, workload, buffers, energy_model):
        return compiled.evaluate_grid(
            workload,
            DEFAULT_RESOURCE_MODEL,
            STRATIX_V_GXA7,
            buffers=buffers,
            energy_model=energy_model,
            **self.AXES,
        )

    def test_warm_tables_match_cold_and_per_point(self, alexnet_workload):
        workload = alexnet_workload
        derived = [size_buffers(workload, s) for s in self.AXES["s_ec_values"]]
        d_f = max(sized.d_f for sized in derived)
        # Same d_f (so the same column tables), different d_w.
        overrides = [
            tuple(BufferSizing(d_f=d_f, d_w=d_w, d_q=sized.d_q) for sized in derived)
            for d_w in (derived[0].d_w, 4 * derived[0].d_w)
        ]
        energy_models = (
            EnergyModel(),
            EnergyModel(ddr_byte_j=90.0e-12, static_w=4.0, multiply_j=7.5e-12),
        )
        warm = compile_workload(workload, 4)
        self._evaluate(warm, workload, overrides[0], energy_models[0])
        for buffers in overrides:
            for model in energy_models:
                got = self._evaluate(warm, workload, buffers, model)
                cold = self._evaluate(
                    CompiledWorkload(workload, 4), workload, buffers, model
                )
                _assert_grids_identical(got, cold)
                for index in np.ndindex(got.shape):
                    config = got.config_at(*index)
                    perf = estimate_model(workload, config, mode=MODE_QUANTIZED)
                    assert got.cycles_per_image[index] == perf.cycles_per_image
                    seconds = perf.cycles_per_image / (config.freq_mhz * 1e6)
                    report = abm_power_analytic(workload, config, seconds, model)
                    assert got.power_w[index] == report.total_power_w
                    assert got.gops_per_watt[index] == report.gops_per_watt

    def test_rejects_a_workload_it_was_not_compiled_from(self, alexnet_workload):
        copy = ModelWorkload(name=alexnet_workload.name, layers=alexnet_workload.layers)
        with pytest.raises(ValueError, match="not the one"):
            compile_workload(alexnet_workload, 4).evaluate_grid(
                copy,
                DEFAULT_RESOURCE_MODEL,
                n_knl_values=(14,),
                s_ec_values=(20,),
                n_cu_values=(3,),
            )

    def test_plannable_matches_the_planner(self, alexnet_workload):
        compiled = compile_workload(alexnet_workload, 4)
        for d_f in (16, 256, 4096):
            for s_ec in (4, 20):
                try:
                    for layer in alexnet_workload.layers:
                        plan_layer_windows(layer.spec, d_f, s_ec)
                    expected = True
                except ValueError:
                    expected = False
                assert compiled.plannable(d_f, s_ec) is expected


class TestCompiledOwnerEviction:
    def test_entries_dropped_with_their_workload(self):
        workload = synthetic_model_workload("alexnet", seed=7)
        before = len(_compiled)
        for n_share in (2, 4):
            compile_workload(workload, n_share).evaluate_grid(
                workload,
                DEFAULT_RESOURCE_MODEL,
                n_knl_values=(14,),
                s_ec_values=(20,),
                n_cu_values=(3,),
            )
        assert len(_compiled) == before + 2
        del workload
        gc.collect()
        assert len(_compiled) == before
