"""Tests for the pruning substrate."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.prune.magnitude import prune_network, prune_tensor
from tests.conftest import layer_named
from repro.prune.schedules import (
    DEEP_COMPRESSION_VGG16,
    PruningSchedule,
    deep_compression_schedule,
    uniform_schedule,
)


class TestPruneTensor:
    def test_exact_keep_count(self, rng):
        weights = rng.normal(size=1000)
        pruned = prune_tensor(weights, density=0.3)
        assert np.count_nonzero(pruned) == 300

    def test_keeps_largest_magnitudes(self, rng):
        weights = np.array([0.1, -5.0, 0.2, 3.0, -0.05])
        pruned = prune_tensor(weights, density=0.4)
        assert pruned.tolist() == [0.0, -5.0, 0.0, 3.0, 0.0]

    def test_density_zero(self, rng):
        assert not np.any(prune_tensor(rng.normal(size=10), 0.0))

    def test_density_one_is_copy(self, rng):
        weights = rng.normal(size=10)
        pruned = prune_tensor(weights, 1.0)
        assert np.array_equal(pruned, weights)
        assert pruned is not weights

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            prune_tensor(np.zeros(4), 1.5)

    def test_preserves_shape(self, rng):
        weights = rng.normal(size=(4, 3, 3, 3))
        assert prune_tensor(weights, 0.5).shape == weights.shape

    @given(
        st.integers(min_value=10, max_value=500),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_density_property(self, size, density):
        rng = np.random.default_rng(size)
        weights = rng.normal(size=size)
        pruned = prune_tensor(weights, density)
        assert np.count_nonzero(pruned) == int(round(density * size))
        # Pruning only zeroes entries, never changes surviving ones.
        surviving = pruned != 0
        assert np.array_equal(pruned[surviving], weights[surviving])

    def test_ties_keep_earliest_in_flat_order(self):
        assert np.flatnonzero(prune_tensor(np.ones(10), 0.5)).tolist() == [0, 1, 2, 3, 4]

    @given(
        st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=200),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_kept_set(self, values, density):
        """Small integer weights tie at the threshold almost always: the kept
        count is exact, nothing dropped outranks anything kept, and of the
        ties at the threshold the earliest survive."""
        weights = np.array(values, dtype=np.float64)
        pruned = prune_tensor(weights, density)
        kept = pruned != 0
        assert np.count_nonzero(kept) == int(round(density * weights.size))
        assert np.array_equal(pruned[kept], weights[kept])
        if kept.all() or not kept.any():
            return
        magnitude = np.abs(weights)
        threshold = magnitude[kept].min()
        assert threshold >= magnitude[~kept].max()
        ties = np.flatnonzero(magnitude == threshold)
        kept_ties = ties[kept[ties]]
        assert kept_ties.tolist() == ties[: kept_ties.size].tolist()


def masked_prune_tensor(weights, density):
    """``prune_tensor``'s body before it shared one buffer, verbatim (an
    ``np.abs`` copy, two comparisons, their OR and an ``np.where``): the
    oracle for the lean body."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    arr = np.asarray(weights, dtype=np.float64)
    keep = int(round(density * arr.size))
    if keep == 0:
        return np.zeros_like(arr)
    if keep >= arr.size:
        return arr.copy()
    flat = arr.reshape(-1)
    cut = arr.size - keep
    # The keep largest magnitudes land in the tail; NaN sorts above inf.
    magnitude = np.abs(flat)
    magnitude.partition(cut)
    if not np.isfinite(magnitude[cut:].max()):
        raise ValueError("weights contain non-finite values (NaN or inf)")
    threshold = magnitude[cut]
    kept = (flat >= threshold) | (flat <= -threshold)
    excess = int(np.count_nonzero(kept)) - keep
    if excess:
        # More ties at the threshold than places left: drop the latest ones.
        ties = np.flatnonzero(np.abs(flat) == threshold)
        kept[ties[ties.size - excess :]] = False
    return np.where(kept, flat, 0.0).reshape(arr.shape)


class TestLeanPrune:
    """The one-buffer ``prune_tensor`` against the masked body it replaced."""

    @given(
        weights=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=8),
            elements=st.one_of(
                # Few distinct magnitudes: ties at the threshold, signed zeros.
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
        ),
        density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_the_masked_body(self, weights, density):
        """Same bytes (signed zeros and NaN payloads included) or the same
        non-finite error."""
        try:
            expected = masked_prune_tensor(weights, density)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                prune_tensor(weights, density)
            return
        got = prune_tensor(weights, density)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_peak_is_one_buffer_beside_the_weights(self, rng):
        """The call's traced peak, result included, is about one float64
        copy of the weights (plus a one-byte mask), not the ~3.4 copies
        the masked body held."""
        weights = rng.normal(size=(512, 1024))
        tracemalloc.start()
        try:
            prune_tensor(weights, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * weights.nbytes


class TestSchedules:
    def test_deep_compression_vgg_matches_table1(self):
        """Paper Table 1 pruning ratios: conv1_1 42%, conv4_2 73%, fc6 96%."""
        schedule = deep_compression_schedule("vgg16")
        assert 1 - schedule.density("conv1_1") == pytest.approx(0.42)
        assert 1 - schedule.density("conv1_2") == pytest.approx(0.78)
        assert 1 - schedule.density("conv4_1") == pytest.approx(0.68)
        assert 1 - schedule.density("conv4_2") == pytest.approx(0.73)
        assert 1 - schedule.density("fc6") == pytest.approx(0.96)
        assert 1 - schedule.density("fc7") == pytest.approx(0.96)

    def test_all_layers_covered(self):
        schedule = deep_compression_schedule("vgg16")
        assert set(DEEP_COMPRESSION_VGG16) == set(schedule.densities)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            deep_compression_schedule("resnet")

    def test_unknown_layer(self):
        with pytest.raises(KeyError):
            deep_compression_schedule("vgg16").density("conv9_9")

    def test_uniform(self):
        schedule = uniform_schedule(["a", "b"], 0.5)
        assert schedule.density("a") == 0.5
        assert "b" in schedule.densities

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            PruningSchedule("bad", {"a": 1.2})


class TestNetworkPruning:
    def test_prune_network(self, tiny_architecture):
        network = tiny_architecture.build(seed=3)
        prune_network(network, {"conv1": 0.5, "fc3": 0.1})
        density = {
            layer.name: np.count_nonzero(layer.weights) / layer.weights.size
            for layer in network
            if layer.weights is not None
        }
        assert density["conv1"] == pytest.approx(0.5, abs=0.01)
        assert density["fc3"] == pytest.approx(0.1, abs=0.01)
        assert density["conv2"] == 1.0  # unscheduled layers untouched

    def test_mac_reduction_rate_vgg_band(self):
        """The paper reports a 3.06x MAC reduction for pruned VGG16."""
        from repro.workloads import synthetic_model_workload

        workload = synthetic_model_workload("vgg16", seed=1)
        reduction = workload.dense_ops / (2 * workload.accumulate_ops)
        assert reduction == pytest.approx(3.06, rel=0.03)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_the_layer(self, tiny_architecture, bad):
        network = tiny_architecture.build(seed=3)
        layer_named(network, "conv2").weights[0, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="layer 'conv2'.*non-finite"):
            prune_network(network, {"conv1": 0.5, "conv2": 0.5})
