"""Differential tests: compiled whole-grid DSE vs the per-point oracle.

The compiled evaluator (`repro.dse.compiled`) and the sweeps built on it
must be *float-identical*, point for point, to the per-point oracle —
`estimate_model` in the quantized mode plus `estimate_resources` on each
point's configuration: same cycles, same throughput, same resource
estimates, same feasibility, same chosen configuration — across models,
conv+FC layers and degenerate grids. These tests pin that
contract with the paper workloads and with hypothesis-random synthetic
ones.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.specs import conv_spec, fc_spec
from repro.dse.compiled import (
    column_tables,
    compile_workload,
    plan_columns,
    throughput_and_power,
)
from repro.dse.explorer import (
    N_CU_RANGE,
    N_KNL_RANGE,
    S_EC_RANGE,
    best_candidates,
    explore,
    optimal_nknl,
    size_buffers,
    sweep_nknl,
    sweep_sec_ncu,
)
from repro.dse.performance import (
    MODE_QUANTIZED,
    estimate_model,
    share_factor_from_workloads,
)
from repro.dse.resources import estimate_resources
from repro.dse import compiled as compiled_module
from repro.dse.compiled import CompiledWorkload, _compiled
from repro.dse.explorer import BufferSizing, _buffers
from repro.hw.config import AcceleratorConfig
from repro.hw.device import STRATIX_V_GXA7
from repro.hw.tiling import plan_windows
from repro.hw.device import FPGADevice
from repro.hw.power import abm_power_analytic, analytic_ddr_bytes
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
    device,
    s_ec=20,
    n_cu=3,
):
    """Every Figure 6 point is the per-point oracle's; boosts are relative
    to the sweep's first point."""
    assert [p.n_knl for p in points] == list(N_KNL_RANGE)
    for point in points:
        config = point_config(workload, point.n_knl, n_share, s_ec, n_cu)
        estimate = estimate_resources(config)
        assert point.throughput_gops == per_point_gops(workload, config)
        assert point.logic_alms == estimate.alms
        assert point.feasible == estimate.utilization(device).fits()
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
):
    """Every Figure 7 point, in N_cu-outer / S_ec-inner order, is the
    per-point oracle's."""
    assert [(p.n_cu, p.s_ec) for p in points] == [
        (n_cu, s_ec) for n_cu in N_CU_RANGE for s_ec in S_EC_RANGE
    ]
    for point in points:
        config = point_config(workload, n_knl, n_share, point.s_ec, point.n_cu)
        estimate = estimate_resources(config)
        utilization = estimate.utilization(device)
        assert point.config == config
        assert point.throughput_gops == per_point_gops(workload, config)
        assert point.resources == estimate
        assert point.utilization == utilization
        assert point.feasible == utilization.fits()


# ---------------------------------------------------------------------------
# Pinned paper workloads: the sweeps and the whole flow must be identical.
# ---------------------------------------------------------------------------


class TestPaperWorkloadsIdentical:
    @pytest.mark.parametrize("model", ["alexnet", "vgg16"])
    def test_sweep_nknl_identical(self, model):
        workload = synthetic_model_workload(model, seed=1)
        points = sweep_nknl(
            workload, n_share=4, device=STRATIX_V_GXA7
        )
        assert_nknl_per_point(points, workload, 4, device=STRATIX_V_GXA7)

    @pytest.mark.parametrize("model", ["alexnet", "vgg16"])
    def test_sweep_sec_ncu_identical(self, model):
        workload = synthetic_model_workload(model, seed=1)
        points = sweep_sec_ncu(
            workload, STRATIX_V_GXA7, n_knl=14, n_share=4
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

    def test_best_candidates_identical(self, vgg_workload):
        """The candidate set is the top five feasible points ranked by the
        per-point oracle's throughput."""
        grid = sweep_sec_ncu(
            vgg_workload, STRATIX_V_GXA7, n_knl=14, n_share=4
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
        evaluation = compile_workload(alexnet_workload, 4).evaluate_grid(
            alexnet_workload,
            STRATIX_V_GXA7,
            n_knl_values=(14,),
            s_ec_values=(20,),
            n_cu_values=(3,),
        )
        assert evaluation.cycles_per_image.shape == (1, 1, 1)
        config = point_config(alexnet_workload, 14, 4, 20, 3)
        estimate = estimate_resources(config)
        assert evaluation.config_at(0, 0, 0) == config
        assert evaluation.throughput_gops[0, 0, 0] == per_point_gops(
            alexnet_workload, config
        )
        assert evaluation.estimate_at(0, 0, 0) == estimate
        assert evaluation.utilization_at(0, 0, 0) == estimate.utilization(
            STRATIX_V_GXA7
        )

    def test_single_point_nknl(self, alexnet_workload):
        """A one-N_knl grid scores exactly the sweep's point at that N_knl."""
        evaluation = compile_workload(alexnet_workload, 4).evaluate_grid(
            alexnet_workload,
            STRATIX_V_GXA7,
            n_knl_values=(14,),
            s_ec_values=(20,),
            n_cu_values=(3,),
        )
        points = sweep_nknl(alexnet_workload, n_share=4, device=STRATIX_V_GXA7)
        point = points[N_KNL_RANGE.index(14)]
        assert point.throughput_gops == evaluation.throughput_gops[0, 0, 0]
        assert point.logic_alms == evaluation.alms[0, 0, 0]
        assert point.feasible == evaluation.feasible[0, 0, 0]
        assert points[0].normalized_boost == 1.0

    def test_empty_nknl_range(self, alexnet_workload):
        evaluation = compile_workload(alexnet_workload, 4).evaluate_grid(
            alexnet_workload,
            STRATIX_V_GXA7,
            n_knl_values=(),
            s_ec_values=(20,),
            n_cu_values=(3,),
        )
        assert evaluation.cycles_per_image.shape == (0, 1, 1)
        assert not evaluation.feasible.any()

    def test_all_infeasible_grid(self, alexnet_workload):
        points = sweep_sec_ncu(
            alexnet_workload, TINY_DEVICE, n_knl=14, n_share=4
        )
        assert_grid_per_point(points, alexnet_workload, TINY_DEVICE, n_knl=14, n_share=4)
        assert not any(point.feasible for point in points)

    def test_all_infeasible_explore_raises_both_paths(self, alexnet_workload):
        with pytest.raises((RuntimeError, ValueError)):
            explore(alexnet_workload, TINY_DEVICE)
        nknl = sweep_nknl(
            alexnet_workload, n_share=4, device=TINY_DEVICE
        )
        with pytest.raises(ValueError):
            optimal_nknl(nknl)


# ---------------------------------------------------------------------------
# Hypothesis: random synthetic workloads, conv + FC layers.
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
    )
    def test_grid_matches_per_point_model(self, workload, n_share, axes):
        n_knl_values, s_ec_values, n_cu_values = axes
        evaluation = compile_workload(workload, n_share).evaluate_grid(
            workload,
            STRATIX_V_GXA7,
            n_knl_values=n_knl_values,
            s_ec_values=s_ec_values,
            n_cu_values=n_cu_values,
        )
        for i in range(len(n_knl_values)):
            for j in range(len(s_ec_values)):
                for k in range(len(n_cu_values)):
                    config = evaluation.config_at(i, j, k)
                    perf = estimate_model(workload, config, mode=MODE_QUANTIZED)
                    assert (
                        evaluation.cycles_per_image[i, j, k] == perf.cycles_per_image
                    )
                    assert (
                        evaluation.throughput_gops[i, j, k] == perf.throughput_gops
                    )
                    estimate = estimate_resources(config)
                    assert evaluation.estimate_at(i, j, k) == estimate
                    utilization = estimate.utilization(STRATIX_V_GXA7)
                    assert evaluation.utilization_at(i, j, k) == utilization
                    assert bool(evaluation.feasible[i, j, k]) == utilization.fits()

    @settings(max_examples=25, deadline=None)
    @given(workload=model_workload(), n_share=st.integers(1, 5))
    def test_sweeps_match_reference(self, workload, n_share):
        """Both sweeps are the per-point oracle's, point for point."""
        kwargs = dict(s_ec=6, n_cu=2)
        points = sweep_nknl(
            workload, n_share, device=STRATIX_V_GXA7, **kwargs
        )
        assert_nknl_per_point(points, workload, n_share, STRATIX_V_GXA7, **kwargs)
        grid = sweep_sec_ncu(workload, STRATIX_V_GXA7, n_knl=5, n_share=n_share)
        assert_grid_per_point(grid, workload, STRATIX_V_GXA7, n_knl=5, n_share=n_share)


# ---------------------------------------------------------------------------
# The array column tables vs the scalar planner, window runs and traffic.
# ---------------------------------------------------------------------------


def assert_columns_match_planner(workload, columns):
    """Every (layer, column) entry of ``plan_columns`` equals the scalar
    planner's plan, the vector steps of its window runs, and its DDR
    bytes; a column is plannable exactly when every layer plans."""
    plans = plan_columns(workload, [d for d, _ in columns], [s for _, s in columns])
    assert plans.steps.shape == (len(workload.layers), len(columns))
    for j, (d_f, s_ec) in enumerate(columns):
        try:
            scalar = [
                plan_layer_windows(layer.spec, d_f, s_ec) for layer in workload.layers
            ]
        except ValueError:
            assert not plans.plannable[j], (d_f, s_ec)
            continue
        assert plans.plannable[j], (d_f, s_ec)
        for i, plan in enumerate(scalar):
            got = tuple(
                int(getattr(plans, name)[i, j])
                for name in (
                    "window_rows", "window_cols", "g_r", "g_c",
                    "window_input_bytes", "window_output_bytes", "batch",
                )
            )
            assert got == (
                plan.window_rows, plan.window_cols, plan.g_r, plan.g_c,
                plan.window_input_bytes, plan.window_output_bytes,
                plan.batch_images,
            ), (plan.layer, d_f, s_ec)
            runs = plan.window_runs
            steps = sum(-(-pixels // s_ec) * count for pixels, count in runs)
            assert plans.steps[i, j] == steps, (plan.layer, d_f, s_ec)
        config = AcceleratorConfig(n_cu=1, n_knl=1, n_share=1, s_ec=s_ec, d_f=d_f)
        assert plans.ddr_bytes[j] == analytic_ddr_bytes(workload, config)


@st.composite
def planner_layer(draw, index: int):
    """A conv layer (stride may exceed the kernel) or an FC layer."""
    if draw(st.booleans()):
        spec = fc_spec(
            f"fc{index}", draw(st.integers(1, 4000)), draw(st.integers(1, 16))
        )
        # An FC layer may also read a flattened map.
        spec = dataclasses.replace(spec, in_rows=draw(st.integers(1, 3)))
    else:
        kernel = draw(st.integers(1, 7))
        spec = conv_spec(
            f"conv{index}",
            draw(st.integers(1, 96)),
            draw(st.integers(1, 8)),
            kernel,
            in_rows=draw(st.integers(kernel, 40)),
            in_cols=draw(st.integers(kernel, 40)),
            stride=draw(st.integers(1, 8)),
            padding=draw(st.integers(0, 2)),
        )
    nonzeros = draw(
        st.lists(
            st.integers(0, spec.weights_per_kernel),
            min_size=spec.out_channels,
            max_size=spec.out_channels,
        )
    )
    return workload_from_arrays(spec, nonzeros, [min(n, 3) for n in nonzeros])


@st.composite
def planner_workload(draw):
    # Eight layers and more: numpy's pairwise sum would reorder the DDR bytes.
    count = draw(st.integers(1, 10))
    return ModelWorkload(
        name="random", layers=tuple(draw(planner_layer(i)) for i in range(count))
    )


class TestStepsClosedForm:
    @pytest.mark.parametrize("model", ["alexnet", "vgg16"])
    @pytest.mark.parametrize("s_ec", [4, 20, 31])
    def test_matches_window_loop(self, model, s_ec):
        import math

        workload = synthetic_model_workload(model, seed=1)
        buffers = size_buffers(workload, s_ec)
        plans = plan_columns(workload, [buffers.d_f], [s_ec])
        for index, layer in enumerate(workload.layers):
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
            assert plans.steps[index, 0] == expected
            assert plans.batch[index, 0] == plan.batch_images


class TestColumnPlans:
    @settings(max_examples=150, deadline=None)
    @given(
        workload=planner_workload(),
        columns=st.lists(
            st.tuples(st.integers(1, 600), st.integers(1, 40)), min_size=1, max_size=8
        ),
    )
    def test_random_columns_match_planner(self, workload, columns):
        assert_columns_match_planner(workload, columns)

    def test_mixed_batch_on_the_paper_models(self):
        """Plannable and unplannable columns in one batch."""
        for model in ("alexnet", "vgg16"):
            workload = synthetic_model_workload(model, seed=1)
            columns = [
                (d_f, s_ec)
                for d_f in (8, 64, 300, 1568, 3136, 8320)
                for s_ec in (1, 4, 7, 20, 26, 39)
            ]
            plans = plan_columns(workload, *zip(*columns))
            assert plans.plannable.any() and not plans.plannable.all()
            assert_columns_match_planner(workload, columns)

    def test_mixed_batch_with_column_tiles(self):
        """Unplannable, column-tiled, one-row and tall-stripe columns of a
        wide layer and a stride > kernel layer in one batch."""
        layers = (
            workload_from_arrays(
                conv_spec("wide", 256, 8, 3, in_rows=30, in_cols=30, padding=1),
                [5] * 8,
                [2] * 8,
            ),
            workload_from_arrays(
                conv_spec("strided", 3, 8, 2, in_rows=40, in_cols=40, stride=5),
                [4] * 8,
                [1] * 8,
            ),
        )
        workload = ModelWorkload(name="mixed", layers=layers)
        columns = [(1, 1), (100, 20), (500, 20), (4000, 20), (4000, 7)]
        plans = plan_columns(workload, *zip(*columns))
        assert plans.plannable.tolist() == [False, True, True, True, True]
        assert plans.window_cols[0, 1] < 30  # column tiles
        assert plans.window_rows[0, 2] == 1 and plans.window_rows[0, 3] > 1
        assert_columns_match_planner(workload, columns)

    def test_non_positive_geometry_plans_nothing(self, alexnet_workload):
        plans = plan_columns(alexnet_workload, [0, 1568, -1568], [20, 0, -20])
        assert not plans.plannable.any()

    def test_tables_built_once_shared_by_every_n_and_dropped(self, monkeypatch):
        workload = synthetic_model_workload("alexnet", seed=11)
        built = []

        def counting(workload, d_f, s_ec):
            built.append(list(zip(d_f, s_ec)))
            return plan_columns(workload, d_f, s_ec)

        monkeypatch.setattr(compiled_module, "plan_columns", counting)
        for n_share in (2, 4, 8):
            compile_workload(workload, n_share).evaluate_grid(
                workload,
                STRATIX_V_GXA7,
                n_knl_values=(14,),
                s_ec_values=(16, 20),
                n_cu_values=(3,),
            )
        keys = [(size_buffers(workload, s).d_f, s) for s in (16, 20)]
        assert built == [keys]
        assert list(workload.column_tables) == keys
        tables = [weakref.ref(workload.column_tables[key]) for key in keys]
        del workload
        gc.collect()
        assert all(table() is None for table in tables)


# ---------------------------------------------------------------------------
# Caches: size_buffers memo, window-plan LRU, compiled-workload memo.
# ---------------------------------------------------------------------------


class TestCaches:
    def test_size_buffers_memoized_per_identity(self, alexnet_workload):
        _buffers.clear()
        first = size_buffers(alexnet_workload, 20)
        assert size_buffers(alexnet_workload, 20) is first
        assert _buffers.stats().size == 1
        assert size_buffers(alexnet_workload, 16) is not first
        assert _buffers.stats().size == 2
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


# ---------------------------------------------------------------------------
# Column tables: warm per-(d_f, S_ec) tables equal a cold compile and the
# per-point model, exactly.
# ---------------------------------------------------------------------------

GRID_ARRAYS = ("cycles_per_image", "throughput_gops", "alms", "feasible")


def _assert_grids_identical(a, b):
    for name in GRID_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.energy_per_image_j == b.energy_per_image_j


class TestColumnTables:
    AXES = dict(n_knl_values=(4, 14), s_ec_values=(8, 20), n_cu_values=(1, 3))

    def _evaluate(self, compiled, workload, buffers):
        return compiled.evaluate_grid(
            workload, STRATIX_V_GXA7, buffers=buffers, **self.AXES
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
        warm = compile_workload(workload, 4)
        self._evaluate(warm, workload, overrides[0])
        for buffers in overrides:
            got = self._evaluate(warm, workload, buffers)
            cold = self._evaluate(CompiledWorkload(workload, 4), workload, buffers)
            _assert_grids_identical(got, cold)
            _, power_w = throughput_and_power(
                got.cycles_per_image,
                got.freq_mhz,
                got.dense_ops,
                np.array(got.energy_per_image_j),
            )
            for index in np.ndindex(got.cycles_per_image.shape):
                config = got.config_at(*index)
                perf = estimate_model(workload, config, mode=MODE_QUANTIZED)
                assert got.cycles_per_image[index] == perf.cycles_per_image
                seconds = perf.cycles_per_image / (config.freq_mhz * 1e6)
                report = abm_power_analytic(workload, config, seconds)
                assert power_w[index] == report.total_power_w

    def test_rejects_a_workload_it_was_not_compiled_from(self, alexnet_workload):
        copy = ModelWorkload(name=alexnet_workload.name, layers=alexnet_workload.layers)
        with pytest.raises(ValueError, match="not the one"):
            compile_workload(alexnet_workload, 4).evaluate_grid(
                copy,
                STRATIX_V_GXA7,
                n_knl_values=(14,),
                s_ec_values=(20,),
                n_cu_values=(3,),
            )

    def test_plannable_matches_the_planner(self, alexnet_workload):
        columns = [(d_f, s_ec) for d_f in (16, 256, 4096) for s_ec in (4, 20)]
        for (d_f, s_ec), table in zip(
            columns, column_tables(alexnet_workload, columns)
        ):
            try:
                for layer in alexnet_workload.layers:
                    plan_layer_windows(layer.spec, d_f, s_ec)
                expected = True
            except ValueError:
                expected = False
            assert (table is not None) is expected

    def test_unplannable_column_raises_the_planners_error(self, alexnet_workload):
        d_f, s_ec = 16, 4
        with pytest.raises(ValueError) as planner:
            for layer in alexnet_workload.layers:
                plan_layer_windows(layer.spec, d_f, s_ec)
        with pytest.raises(ValueError) as grid:
            compile_workload(alexnet_workload, 4).evaluate_grid(
                alexnet_workload,
                STRATIX_V_GXA7,
                n_knl_values=(14,),
                s_ec_values=(s_ec,),
                n_cu_values=(3,),
                buffers=[BufferSizing(d_f=d_f, d_w=2048, d_q=128)],
            )
        assert str(grid.value) == str(planner.value)


class TestCompiledOwnerEviction:
    def test_entries_dropped_with_their_workload(self):
        workload = synthetic_model_workload("alexnet", seed=7)
        before = _compiled.stats().size
        for n_share in (2, 4):
            compile_workload(workload, n_share).evaluate_grid(
                workload,
                STRATIX_V_GXA7,
                n_knl_values=(14,),
                s_ec_values=(20,),
                n_cu_values=(3,),
            )
        assert _compiled.stats().size == before + 2
        del workload
        gc.collect()
        assert _compiled.stats().size == before
