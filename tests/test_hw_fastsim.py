"""Differential tests: vectorized scheduler fast path vs the reference.

The fast path must be *cycle-exact*: every field of
:class:`~repro.hw.scheduler.LayerSimResult` — total cycles, per-CU busy
cycles, stalls, op counts, window/task counts — must equal the per-task
reference event loop, and a trace recorded on the fast path must contain
the same event multiset. Hypothesis drives random configurations, grouping
policies and conv/FC workloads through both implementations.

Also covers the satellites that ride on the fast path: the layer result
cache, opt-in parallel multi-layer simulation, the batched task-cost
vectors and the bounded trace ring buffer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.specs import conv_spec, fc_spec
from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import AcceleratorConfig
from repro.hw.cu import ConvTask, task_cycles, task_cycles_batch
from repro.hw.memory import ExternalMemory
from repro.hw.scheduler import (
    POLICY_BALANCED,
    POLICY_NATURAL,
    compile_window_schedules,
    make_kernel_groups,
    simulate_layer,
    simulate_layer_reference,
)
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
    n_cu=st.integers(1, 5),
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

    def test_zero_work_layer(self):
        """Fully-pruned kernels cost only launch/fill overhead on both paths."""
        spec = conv_spec("c", 4, 4, kernel=3, in_rows=6, in_cols=6, padding=1)
        workload = workload_from_arrays(spec, [0, 0, 0, 0], [0, 0, 0, 0])
        config = AcceleratorConfig(n_cu=2, n_knl=2, n_share=4, s_ec=4, d_f=512)
        fast = simulate_layer(workload, config, _memory(config, 12.8))
        reference = simulate_layer_reference(workload, config, _memory(config, 12.8))
        assert fast == reference


# ---------------------------------------------------------------------------
# batched task costs
# ---------------------------------------------------------------------------


class TestTaskCyclesBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        workload=workloads,
        config=configs,
        policy=policies,
        pixels=st.integers(1, 200),
    )
    def test_matches_scalar_task_cycles(self, workload, config, policy, pixels):
        groups = make_kernel_groups(workload, config, policy)
        flat = np.concatenate(groups)
        nonzeros = workload.nonzeros[flat]
        distinct = workload.distinct[flat]
        starts = np.arange(0, flat.size, config.n_knl)
        batch = task_cycles_batch(nonzeros, distinct, starts, pixels, config)
        for index, group in enumerate(groups):
            task = ConvTask(
                layer="t",
                window_index=0,
                group_index=index,
                nonzeros=tuple(int(n) for n in workload.nonzeros[group]),
                distinct=tuple(int(d) for d in workload.distinct[group]),
                window_pixels=pixels,
            )
            cost = task_cycles(task, config)
            assert int(batch.cycles[index]) == cost.cycles
            assert int(batch.engine_busy_cycles[index]) == cost.engine_busy_cycles
            assert (
                int(batch.engine_cycle_capacity[index]) == cost.engine_cycle_capacity
            )
            assert int(batch.accumulate_ops[index]) == cost.accumulate_ops
            assert int(batch.multiply_ops[index]) == cost.multiply_ops

    def test_rejects_empty_window(self):
        config = AcceleratorConfig(n_cu=1, n_knl=2, n_share=4, s_ec=4)
        with pytest.raises(ValueError):
            task_cycles_batch(
                np.array([1, 2]), np.array([1, 1]), np.array([0]), 0, config
            )

    def test_schedule_compiles_one_entry_per_distinct_size(self, rng):
        spec = conv_spec("c", 8, 8, kernel=3, in_rows=11, in_cols=11, padding=1)
        nonzeros = rng.integers(5, 60, size=8)
        distinct = np.minimum(rng.integers(1, 10, size=8), nonzeros)
        workload = workload_from_arrays(spec, nonzeros, distinct)
        config = AcceleratorConfig(n_cu=2, n_knl=4, n_share=4, s_ec=8, d_f=512)
        schedules = compile_window_schedules(workload, config)
        # Interior/edge/corner windows: at most four distinct pixel counts.
        assert 1 <= len(schedules) <= 4


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
