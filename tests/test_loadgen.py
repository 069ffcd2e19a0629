"""Property and metamorphic tests for the trace-driven load generator.

The generators are model-exact where the model allows it (diurnal mean
rate and periodicity are properties of the inverted integrated rate, not
sampling accidents; burst traces are a rearrangement of load, never extra
load) and statistically pinned elsewhere (Poisson mean rate within a
CLT-derived tolerance). Everything is seeded, so bit-reproducibility is
asserted with array equality, not tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.loadgen import (
    LoadTrace,
    TRACE_KINDS,
    burst_trace,
    diurnal_trace,
    make_trace,
    poisson_trace,
    uniform_trace,
)
from repro.serve.loadgen import assign_slo_classes


class TestLoadTrace:
    def test_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            LoadTrace("x", np.array([1.0, 0.5]), np.zeros(2, dtype=np.int32))
        with pytest.raises(ValueError, match="negative"):
            LoadTrace("x", np.array([-1.0, 0.5]), np.zeros(2, dtype=np.int32))
        with pytest.raises(ValueError, match="one class id per arrival"):
            LoadTrace("x", np.array([0.0, 0.5]), np.zeros(3, dtype=np.int32))
        with pytest.raises(ValueError, match="out of range"):
            LoadTrace("x", np.array([0.0]), np.array([1], dtype=np.int32))

    def test_rejects_non_finite_arrivals(self):
        """A NaN arrival would be served and poison every percentile."""
        with pytest.raises(ValueError, match="finite"):
            LoadTrace("x", [0.0, float("nan"), 1.0], [0, 0, 0])

    def test_counts_by_class(self):
        trace = poisson_trace(
            1000, 100.0, seed=3, slo_mix={"a": 0.5, "b": 0.5}
        )
        counts = trace.counts_by_class()
        assert set(counts) == {"a", "b"}
        assert sum(counts.values()) == 1000
        assert trace.class_of(0) in ("a", "b")


class TestPoisson:
    def test_mean_rate_within_tolerance(self):
        """Empirical rate within 4 sigma of the CLT prediction."""
        count, rate = 20_000, 500.0
        trace = poisson_trace(count, rate, seed=0)
        # Span of n exponential(1/rate) gaps ~ Normal(n/rate, sqrt(n)/rate).
        span = float(trace.arrivals[-1] - trace.arrivals[0])
        expected = count / rate
        sigma = np.sqrt(count) / rate
        assert abs(span - expected) < 4 * sigma
        assert trace.offered_rps == pytest.approx(rate, rel=0.05)

    def test_rejects_nan_rate(self):
        with pytest.raises(ValueError, match="finite"):
            poisson_trace(4, float("nan"))

    def test_rejects_infinite_rate(self):
        """An infinite rate would put every arrival at t = 0."""
        with pytest.raises(ValueError, match="finite"):
            poisson_trace(4, float("inf"))

    def test_gaps_are_memoryless(self):
        """Exponential gaps: CV of inter-arrivals is 1 (within tolerance)."""
        trace = poisson_trace(50_000, 1000.0, seed=1)
        gaps = np.diff(trace.arrivals)
        cv = gaps.std() / gaps.mean()
        assert cv == pytest.approx(1.0, abs=0.05)


class TestUniform:
    def test_exact_spacing(self):
        trace = uniform_trace(10, 100.0)
        assert np.array_equal(trace.arrivals, np.arange(10) / 100.0)
        assert trace.offered_rps == pytest.approx(100.0 * 10 / 9)


class TestDiurnal:
    def test_mean_rate_is_model_exact(self):
        """Mean rate comes from the inverted integrated rate: tight."""
        count, rate = 50_000, 1000.0
        trace = diurnal_trace(count, rate, period_s=5.0, depth=0.8, seed=2)
        assert trace.offered_rps == pytest.approx(rate, rel=0.02)

    def test_periodicity(self):
        """Per-cycle-phase arrival counts track the sinusoidal rate."""
        count, rate, period = 80_000, 1000.0, 8.0
        depth = 0.8
        trace = diurnal_trace(count, rate, period_s=period, depth=depth, seed=0)
        phases = np.mod(trace.arrivals, period) / period  # [0, 1)
        bins = 8
        observed, _ = np.histogram(phases, bins=bins, range=(0.0, 1.0))
        # Expected mass of each phase bin under rate(t) ∝ 1 + depth sin.
        edges = np.linspace(0.0, 1.0, bins + 1)
        omega = 2 * np.pi

        def integral(u):  # integral of (1 + depth sin(2 pi u)) du
            return u + depth / omega * (1.0 - np.cos(omega * u))

        expected = np.diff(integral(edges)) * count
        # Within 5% of the model in every bin — periodicity, not flatness.
        assert np.all(np.abs(observed - expected) < 0.05 * expected)
        # And the modulation is actually there: peak bin >> trough bin.
        assert observed.max() > 2.5 * observed.min()

    def test_consecutive_periods_look_alike(self):
        """Metamorphic: each full cycle carries ~the same request count."""
        count, rate, period = 40_000, 1000.0, 4.0
        trace = diurnal_trace(count, rate, period_s=period, depth=0.6, seed=5)
        cycles = np.floor_divide(trace.arrivals, period).astype(int)
        counts = np.bincount(cycles)
        full = counts[:-1] if len(counts) > 1 else counts
        assert np.all(
            np.abs(full - rate * period) < 0.05 * rate * period
        )

    def test_arrivals_sorted_and_nonnegative(self):
        trace = diurnal_trace(5_000, 200.0, period_s=1.0, depth=0.99 - 1e-9)
        assert np.all(np.diff(trace.arrivals) >= 0)
        assert trace.arrivals[0] >= 0

    def test_depth_zero_matches_homogeneous_targets(self):
        """depth=0 degenerates to the plain Poisson process exactly."""
        trace = diurnal_trace(1_000, 100.0, period_s=1.0, depth=0.0, seed=9)
        rng = np.random.default_rng(9)
        homogeneous = np.cumsum(rng.exponential(scale=1.0, size=1_000)) / 100.0
        np.testing.assert_allclose(trace.arrivals, homogeneous, rtol=1e-9)


class TestBurst:
    @settings(max_examples=40, deadline=None)
    @given(
        count=st.integers(min_value=10, max_value=3_000),
        bursts=st.integers(min_value=1, max_value=8),
        fraction=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_preserves_total_count(self, count, bursts, fraction, seed):
        trace = burst_trace(
            count, 500.0, bursts=bursts, burst_fraction=fraction, seed=seed
        )
        assert trace.count == count
        assert np.all(np.diff(trace.arrivals) >= 0)

    def test_bursts_concentrate_load(self):
        """Max arrivals-per-window far exceeds the Poisson baseline's."""
        count, rate = 20_000, 1000.0
        horizon = count / rate
        width = horizon / 100
        burst = burst_trace(
            count, rate, bursts=4, burst_fraction=0.5, burst_width_s=width,
            seed=0,
        )
        base = poisson_trace(count, rate, seed=0)

        def max_window_count(arrivals):
            lo = np.searchsorted(arrivals, arrivals - width, side="left")
            return int(np.max(np.arange(arrivals.size) - lo))

        assert max_window_count(burst.arrivals) > 3 * max_window_count(
            base.arrivals
        )


class TestReproducibility:
    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_same_seed_bit_identical(self, kind):
        a = make_trace(kind, 2_000, 300.0, seed=42,
                       slo_mix={"x": 0.7, "y": 0.3})
        b = make_trace(kind, 2_000, 300.0, seed=42,
                       slo_mix={"x": 0.7, "y": 0.3})
        assert np.array_equal(a.arrivals, b.arrivals)  # bit-identical
        assert np.array_equal(a.class_ids, b.class_ids)
        assert a.class_names == b.class_names

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_different_seed_differs(self, kind):
        a = make_trace(kind, 500, 300.0, seed=0)
        b = make_trace(kind, 500, 300.0, seed=1)
        if kind == "uniform":  # deterministic arrivals by design
            assert np.array_equal(a.arrivals, b.arrivals)
        else:
            assert not np.array_equal(a.arrivals, b.arrivals)


class TestSLOAssignment:
    def test_mix_proportions(self):
        rng = np.random.default_rng(0)
        names, ids = assign_slo_classes(
            50_000, {"a": 0.8, "b": 0.2}, rng
        )
        assert names == ("a", "b")
        fractions = np.bincount(ids, minlength=2) / ids.size
        assert fractions[0] == pytest.approx(0.8, abs=0.01)
        assert fractions[1] == pytest.approx(0.2, abs=0.01)

    def test_degenerate_mix_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="non-negative"):
            assign_slo_classes(10, {"a": -1.0, "b": 2.0}, rng)

    def test_make_trace_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown trace kind"):
            make_trace("sawtooth", 10, 1.0)
