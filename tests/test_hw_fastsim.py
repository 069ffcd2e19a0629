"""Differential tests: vectorized scheduler fast path vs the reference.

The fast path must be *cycle-exact*: every field of
:class:`~repro.hw.scheduler.LayerSimResult` — total cycles, per-CU busy
cycles, stalls, op counts, window/task counts — must equal the per-task
reference event loop, and a traced ``simulate_layer`` call (which runs
the reference) must record the same events. Hypothesis drives random configurations, grouping
policies and conv/FC workloads through both implementations.

Also covers the satellites that ride on the fast path: the layer result
cache, the dispatch table's per-window-size cost tuples (checked against
the scalar ``task_cycles``), the plan's window runs and the bounded trace
ring buffer.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.specs import conv_spec, fc_spec
from repro.dse.explorer import explore
from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import AcceleratorConfig
from repro.hw.cu import ConvTask, task_cycles
from repro.hw.memory import ExternalMemory
from repro.hw.scheduler import (
    POLICY_BALANCED,
    POLICY_NATURAL,
    LayerSimResult,
    dispatch_table,
    make_kernel_groups,
    simulate_layer,
    simulate_layer_reference,
)
from repro.hw.tiling import WindowPlan, plan_layer_windows
from repro.hw.trace import TraceRecorder
from repro.hw.workload import workload_from_arrays
from repro.hw.device import STRATIX_V_GXA7
from repro.telemetry.caches import cache_stats, clear_caches
from repro.workloads import synthetic_model_workload

# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

configs = st.builds(
    AcceleratorConfig,
    n_cu=st.integers(1, 8),
    n_knl=st.integers(1, 6),
    n_share=st.integers(1, 8),
    s_ec=st.integers(1, 12),
    d_f=st.just(512),
)

policies = st.sampled_from([POLICY_NATURAL, POLICY_BALANCED])

#: Slow enough to force memory stalls, fast enough to never stall.
bandwidths = st.sampled_from([0.05, 12.8])


@st.composite
def conv_workloads(draw):
    in_rows = draw(st.integers(4, 10))
    kernel = draw(st.integers(1, min(3, in_rows)))
    spec = conv_spec(
        "c",
        draw(st.integers(1, 8)),
        draw(st.integers(1, 12)),
        kernel=kernel,
        in_rows=in_rows,
        in_cols=draw(st.integers(kernel, 10)),
        padding=draw(st.integers(0, 1)),
    )
    return _with_random_work(draw, spec)


@st.composite
def fc_workloads(draw):
    spec = fc_spec("fc", draw(st.integers(8, 64)), draw(st.integers(1, 16)))
    return _with_random_work(draw, spec)


def _with_random_work(draw, spec):
    nonzeros = draw(
        st.lists(
            st.integers(0, 60),
            min_size=spec.out_channels,
            max_size=spec.out_channels,
        )
    )
    distinct = [
        draw(st.integers(0, n)) if n else 0 for n in nonzeros
    ]
    return workload_from_arrays(spec, nonzeros, distinct)


workloads = st.one_of(conv_workloads(), fc_workloads())


def _memory(config, bandwidth):
    return ExternalMemory(bandwidth_gbs=bandwidth, freq_mhz=config.freq_mhz)


# ---------------------------------------------------------------------------
# differential: fast path vs reference
# ---------------------------------------------------------------------------


class TestFastPathExactness:
    @settings(max_examples=120, deadline=None)
    @given(workload=workloads, config=configs, policy=policies, bandwidth=bandwidths)
    # Fewer kernel groups than CUs, all waiting for each window's release
    # at the stalling bandwidth: the waiting head ends with the window.
    @example(
        workload=workload_from_arrays(
            conv_spec("c", 3, 4, kernel=3, in_rows=8, in_cols=8, padding=1),
            [27, 5, 14, 0],
            [6, 2, 4, 0],
        ),
        config=AcceleratorConfig(n_cu=8, n_knl=2, n_share=4, s_ec=4, d_f=512),
        policy=POLICY_BALANCED,
        bandwidth=0.05,
    )
    @example(
        workload=workload_from_arrays(fc_spec("fc", 64, 3), [40, 12, 33], [9, 3, 7]),
        config=AcceleratorConfig(n_cu=6, n_knl=1, n_share=2, s_ec=3, d_f=512),
        policy=POLICY_NATURAL,
        bandwidth=0.05,
    )
    def test_cycle_exact_vs_reference(self, workload, config, policy, bandwidth):
        """Every LayerSimResult field matches the reference, exactly."""
        fast = simulate_layer(
            workload, config, _memory(config, bandwidth), policy
        )
        reference = simulate_layer_reference(
            workload, config, _memory(config, bandwidth), policy
        )
        assert fast == reference

    @settings(max_examples=40, deadline=None)
    @given(workload=workloads, config=configs, policy=policies, bandwidth=bandwidths)
    def test_trace_equivalence(self, workload, config, policy, bandwidth):
        """Fast-path traces contain the same event multiset as the reference."""
        fast_trace, ref_trace = TraceRecorder(), TraceRecorder()
        fast = simulate_layer(
            workload, config, _memory(config, bandwidth), policy, trace=fast_trace
        )
        reference = simulate_layer_reference(
            workload, config, _memory(config, bandwidth), policy, trace=ref_trace
        )
        assert fast == reference
        assert sorted(fast_trace.events, key=lambda e: (e.window_index, e.group_index)) == sorted(
            ref_trace.events, key=lambda e: (e.window_index, e.group_index)
        )
        fast_trace.verify_no_overlap()

    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.one_of(
            conv_workloads().map(lambda w: w.spec), fc_workloads().map(lambda w: w.spec)
        ),
        nonzeros=st.integers(0, 60),
        distinct_frac=st.floats(0, 1),
        n_cu=st.integers(1, 8),
        n_knl=st.integers(1, 6),
        s_ec=st.integers(1, 12),
        policy=policies,
        bandwidth=bandwidths,
    )
    def test_equal_cost_ties_pick_the_first_free_cu(
        self, spec, nonzeros, distinct_frac, n_cu, n_knl, s_ec, policy, bandwidth
    ):
        """Equal-cost groups tie on every pick: the earliest-free CU with the
        lowest index wins on both paths, event for event."""
        distinct = int(nonzeros * distinct_frac)
        channels = spec.out_channels
        workload = workload_from_arrays(
            spec, [nonzeros] * channels, [distinct] * channels
        )
        config = AcceleratorConfig(
            n_cu=n_cu, n_knl=n_knl, n_share=4, s_ec=s_ec, d_f=512
        )
        fast_trace, ref_trace = TraceRecorder(), TraceRecorder()
        fast = simulate_layer(
            workload, config, _memory(config, bandwidth), policy, trace=fast_trace
        )
        reference = simulate_layer_reference(
            workload, config, _memory(config, bandwidth), policy, trace=ref_trace
        )
        assert fast == reference
        assert list(fast_trace.events) == list(ref_trace.events)
        # A traced call runs the reference, so check the untraced heap walk
        # breaks the same ties.
        untraced = simulate_layer(workload, config, _memory(config, bandwidth), policy)
        assert untraced == reference

    def test_dispatcher_default_is_fast(self, rng):
        """The default grouping policy is the balanced one on both paths."""
        spec = conv_spec("c", 8, 10, kernel=3, in_rows=10, in_cols=10, padding=1)
        nonzeros = rng.integers(5, 60, size=10)
        distinct = np.minimum(rng.integers(1, 10, size=10), nonzeros)
        workload = workload_from_arrays(spec, nonzeros, distinct)
        config = AcceleratorConfig(n_cu=3, n_knl=4, n_share=4, s_ec=8, d_f=512)
        default = simulate_layer(workload, config, _memory(config, 12.8))
        balanced = simulate_layer(
            workload, config, _memory(config, 12.8), POLICY_BALANCED
        )
        reference = simulate_layer_reference(workload, config, _memory(config, 12.8))
        assert default == balanced == reference

    def test_alexnet_on_explore_grid_configs(self):
        """Full AlexNet, one explore-grid config per CU count (1-6): every
        LayerSimResult field matches the reference."""
        workload = synthetic_model_workload("alexnet", seed=1)
        by_cu = {}
        for point in explore(workload, STRATIX_V_GXA7).grid:
            by_cu.setdefault(point.config.n_cu, point.config)
        assert sorted(by_cu) == [1, 2, 3, 4, 5, 6]
        bandwidth = STRATIX_V_GXA7.bandwidth_gbs
        for config in by_cu.values():
            for layer in workload.layers:
                fast = simulate_layer(layer, config, _memory(config, bandwidth))
                reference = simulate_layer_reference(
                    layer, config, _memory(config, bandwidth)
                )
                for field in dataclasses.fields(LayerSimResult):
                    assert getattr(fast, field.name) == getattr(
                        reference, field.name
                    ), (config, layer.spec.name, field.name)

    def test_zero_work_layer(self):
        """Fully-pruned kernels cost only launch/fill overhead on both paths."""
        spec = conv_spec("c", 4, 4, kernel=3, in_rows=6, in_cols=6, padding=1)
        workload = workload_from_arrays(spec, [0, 0, 0, 0], [0, 0, 0, 0])
        config = AcceleratorConfig(n_cu=2, n_knl=2, n_share=4, s_ec=4, d_f=512)
        fast = simulate_layer(workload, config, _memory(config, 12.8))
        reference = simulate_layer_reference(workload, config, _memory(config, 12.8))
        assert fast == reference

    @settings(max_examples=60, deadline=None)
    @given(
        workload=conv_workloads(),
        config=st.builds(
            AcceleratorConfig,
            n_cu=st.integers(1, 8),
            n_knl=st.integers(1, 6),
            n_share=st.integers(1, 8),
            s_ec=st.integers(1, 4),
        ),
        policy=policies,
        bandwidth=bandwidths,
        data=st.data(),
    )
    def test_column_tiles_exact(self, workload, config, policy, bandwidth, data):
        """A shallow FT-Buffer forces column tiles (g_c > 1, the last tile
        clipped whenever w_c does not divide the width): still exact."""
        spec = workload.spec
        k, s = spec.kernel, spec.stride
        # Depths that fit a 1x1 window but not a full row. Drawing them,
        # rather than filtering random depths, keeps Hypothesis from
        # rejecting most draws.
        one = spec.in_channels * s * k
        row = spec.in_channels * s * ((spec.out_cols - 1) * s + k)
        low, high = -(-one // config.s_ec), -(-row // config.s_ec) - 1
        assume(low <= high)
        d_f = data.draw(st.integers(low, high), label="d_f")
        config = dataclasses.replace(config, d_f=d_f)
        assert plan_layer_windows(spec, d_f, config.s_ec).g_c > 1
        fast = simulate_layer(workload, config, _memory(config, bandwidth), policy)
        reference = simulate_layer_reference(
            workload, config, _memory(config, bandwidth), policy
        )
        assert fast == reference

    @settings(max_examples=60, deadline=None)
    @given(
        workload=conv_workloads(),
        config=configs,
        policy=policies,
        bandwidth=bandwidths,
        data=st.data(),
    )
    def test_clipped_rows_and_columns_exact(
        self, workload, config, policy, bandwidth, data
    ):
        """The planner tiles columns only at one output row, so no plan it
        makes clips both edges; a hand-built grid that does is still
        exact on both paths."""
        spec = workload.spec
        w_r = data.draw(st.integers(1, spec.out_rows), label="w_r")
        w_c = data.draw(st.integers(1, spec.out_cols), label="w_c")
        plan = WindowPlan(
            layer=spec.name,
            window_rows=w_r,
            window_cols=w_c,
            g_r=-(-spec.out_rows // w_r),
            g_c=-(-spec.out_cols // w_c),
            out_rows=spec.out_rows,
            out_cols=spec.out_cols,
            window_input_bytes=spec.in_channels * w_r * w_c,
            window_output_bytes=spec.out_channels * w_r * w_c,
        )
        with mock.patch("repro.hw.scheduler.plan_windows", return_value=plan):
            fast = simulate_layer(
                workload, config, _memory(config, bandwidth), policy
            )
            reference = simulate_layer_reference(
                workload, config, _memory(config, bandwidth), policy
            )
        assert fast == reference


# ---------------------------------------------------------------------------
# batched task costs
# ---------------------------------------------------------------------------


class TestTaskCyclesBatch:
    """A dispatch table's cost tuple is every group's task cost at one
    window size, in LPT order; the scalar ``task_cycles`` is its oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        workload=workloads,
        config=configs,
        policy=policies,
        pixels=st.integers(1, 200),
    )
    def test_matches_scalar_task_cycles(self, workload, config, policy, pixels):
        costs = [
            task_cycles(
                ConvTask(
                    layer="t",
                    window_index=0,
                    group_index=index,
                    nonzeros=tuple(int(n) for n in workload.nonzeros[group]),
                    distinct=tuple(int(d) for d in workload.distinct[group]),
                    window_pixels=pixels,
                ),
                config,
            )
            for index, group in enumerate(make_kernel_groups(workload, config, policy))
        ]
        table = dispatch_table(workload, config.n_knl, config.n_share, policy)
        steps = -(-pixels // config.s_ec)
        # The reference's LPT order: descending cycles, stable ties.
        lpt = sorted(range(len(costs)), key=lambda g: -costs[g].cycles)
        assert table.costs(steps) == tuple(costs[g].cycles for g in lpt)
        assert table.engine_total * steps == sum(c.engine_busy_cycles for c in costs)
        assert table.capacity_total * steps == sum(
            c.engine_cycle_capacity for c in costs
        )

    def test_rejects_empty_window(self):
        spec = conv_spec("c", 4, 2, kernel=3, in_rows=6, in_cols=6)
        workload = workload_from_arrays(spec, np.array([9, 4]), np.array([3, 1]))
        table = dispatch_table(workload, n_knl=2, n_share=4)
        # A window of 0 pixels has 0 vector steps.
        with pytest.raises(ValueError):
            table.costs(0)
        assert table.scaled_costs == {}

    def test_schedule_compiles_one_entry_per_distinct_size(self, rng):
        spec = conv_spec("c", 8, 8, kernel=3, in_rows=11, in_cols=11, padding=1)
        nonzeros = rng.integers(5, 60, size=8)
        distinct = np.minimum(rng.integers(1, 10, size=8), nonzeros)
        workload = workload_from_arrays(spec, nonzeros, distinct)
        config = AcceleratorConfig(n_cu=2, n_knl=4, n_share=4, s_ec=8, d_f=512)
        simulate_layer(workload, config, _memory(config, 12.8))
        table = dispatch_table(workload, 4, 4, POLICY_BALANCED)
        runs = plan_layer_windows(spec, config.d_f, config.s_ec).window_runs
        steps = {-(-pixels // config.s_ec) for pixels, _ in runs}
        # Interior/edge/corner windows: at most four distinct pixel counts.
        assert 1 <= len(steps) <= 4
        assert set(table.scaled_costs) == {(n, config.n_cu) for n in steps}


class TestWindowRuns:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), out_rows=st.integers(1, 30), out_cols=st.integers(1, 30))
    def test_runs_expand_to_the_clipped_grid(self, data, out_rows, out_cols):
        """The runs expand to the window-major product of the edge-clipped
        row and column extents, with equal neighbours merged."""
        w_r = data.draw(st.integers(1, out_rows), label="w_r")
        w_c = data.draw(st.integers(1, out_cols), label="w_c")
        g_r, g_c = -(-out_rows // w_r), -(-out_cols // w_c)
        plan = WindowPlan(
            layer="c",
            window_rows=w_r,
            window_cols=w_c,
            g_r=g_r,
            g_c=g_c,
            out_rows=out_rows,
            out_cols=out_cols,
            window_input_bytes=1,
            window_output_bytes=1,
        )
        grid = [
            min(w_r, out_rows - r * w_r) * min(w_c, out_cols - c * w_c)
            for r in range(g_r)
            for c in range(g_c)
        ]
        runs = plan.window_runs
        assert [pixels for pixels, count in runs for _ in range(count)] == grid
        assert all(count >= 1 for _, count in runs)
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        assert plan.window_runs is runs

    @settings(max_examples=60, deadline=None)
    @given(workload=workloads, d_f=st.integers(8, 512), s_ec=st.integers(1, 12))
    def test_planned_runs_cover_the_output_plane(self, workload, d_f, s_ec):
        spec = workload.spec
        try:
            plan = plan_layer_windows(spec, d_f, s_ec)
        except ValueError:
            assume(False)
        runs = plan.window_runs
        assert sum(count for _, count in runs) == plan.windows
        assert sum(pixels * count for pixels, count in runs) == (
            1 if spec.is_fc else spec.output_pixels
        )


# ---------------------------------------------------------------------------
# layer result cache
# ---------------------------------------------------------------------------


@pytest.fixture
def small_workload():
    return synthetic_model_workload("alexnet", seed=3)


@pytest.fixture
def config():
    return AcceleratorConfig(n_cu=3, n_knl=4, n_share=4, s_ec=8, d_f=1568)


class TestSimResultCache:
    def test_second_simulation_hits_cache(self, small_workload, config):
        clear_caches()
        simulator = AcceleratorSimulator(config, STRATIX_V_GXA7)
        first = simulator.simulate(small_workload)
        assert cache_stats()["hw.sim"].size == len(small_workload.layers)
        second = simulator.simulate(small_workload)
        assert first == second
        hits = cache_stats()["hw.sim"].hits
        assert hits == len(small_workload.layers)
        # Cached entries are the very same LayerSimResult objects.
        for a, b in zip(first.layers, second.layers):
            assert a is b
        clear_caches()

    def test_cache_shared_across_instances(self, small_workload, config):
        """Re-instantiating the simulator (deploy.py, CLI) reuses results."""
        clear_caches()
        AcceleratorSimulator(config, STRATIX_V_GXA7).simulate(small_workload)
        misses_before = cache_stats()["hw.sim"].misses
        AcceleratorSimulator(config, STRATIX_V_GXA7).simulate(small_workload)
        misses_after = cache_stats()["hw.sim"].misses
        assert misses_after == misses_before
        clear_caches()

    def test_no_cache_escape_hatch(self, small_workload, config):
        clear_caches()
        simulator = AcceleratorSimulator(config, STRATIX_V_GXA7, use_cache=False)
        uncached = simulator.simulate(small_workload)
        assert cache_stats()["hw.sim"].size == 0
        cached = AcceleratorSimulator(config, STRATIX_V_GXA7).simulate(small_workload)
        assert uncached == cached
        clear_caches()

    def test_distinct_policies_do_not_collide(self, small_workload, config):
        clear_caches()
        balanced = AcceleratorSimulator(
            config, STRATIX_V_GXA7, policy=POLICY_BALANCED
        ).simulate(small_workload)
        natural = AcceleratorSimulator(
            config, STRATIX_V_GXA7, policy=POLICY_NATURAL
        ).simulate(small_workload)
        assert cache_stats()["hw.sim"].size == 2 * len(small_workload.layers)
        assert balanced.cycles_per_image <= natural.cycles_per_image * 1.05
        clear_caches()

    def test_reference_simulator_matches_fast(self, small_workload, config):
        clear_caches()
        fast = AcceleratorSimulator(
            config, STRATIX_V_GXA7, use_cache=False
        ).simulate(small_workload)
        reference = tuple(
            simulate_layer_reference(
                layer, config, _memory(config, STRATIX_V_GXA7.bandwidth_gbs)
            )
            for layer in small_workload.layers
        )
        assert fast.layers == reference


# ---------------------------------------------------------------------------
# bounded trace recorder
# ---------------------------------------------------------------------------


class TestTraceCapacity:
    def _traced(self, capacity, rng):
        spec = conv_spec("c", 16, 12, kernel=3, in_rows=12, in_cols=12, padding=1)
        nonzeros = rng.integers(20, 120, size=12)
        distinct = np.minimum(rng.integers(2, 12, size=12), nonzeros)
        workload = workload_from_arrays(spec, nonzeros, distinct)
        # Shallow FT-Buffer: several prefetch windows, so the trace has
        # comfortably more events than the ring-buffer capacities below.
        config = AcceleratorConfig(n_cu=3, n_knl=4, n_share=4, s_ec=8, d_f=64)
        trace = TraceRecorder(capacity=capacity)
        result = simulate_layer(
            workload, config, _memory(config, 12.8), trace=trace
        )
        return trace, result

    def test_ring_buffer_keeps_latest(self, rng):
        full, result = self._traced(None, np.random.default_rng(5))
        assert full.dropped == 0
        assert full.recorded == result.tasks
        bounded, result = self._traced(5, np.random.default_rng(5))
        assert len(bounded.events) == 5
        assert bounded.dropped == result.tasks - 5
        assert bounded.recorded == result.tasks
        assert list(bounded.events) == list(full.events)[-5:]

    def test_capacity_larger_than_trace_drops_nothing(self, rng):
        trace, result = self._traced(10_000, rng)
        assert trace.dropped == 0
        assert len(trace.events) == result.tasks

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)
