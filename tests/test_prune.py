"""Tests for the pruning substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prune.magnitude import actual_density, prune_network, prune_tensor
from repro.prune.schedules import (
    DEEP_COMPRESSION_VGG16,
    PruningSchedule,
    deep_compression_schedule,
    uniform_schedule,
)
from repro.prune.sparsity import (
    mac_reduction_rate,
    model_density,
    network_density_report,
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


class TestSchedules:
    def test_deep_compression_vgg_matches_table1(self):
        """Paper Table 1 pruning ratios: conv1_1 42%, conv4_2 73%, fc6 96%."""
        schedule = deep_compression_schedule("vgg16")
        assert schedule.pruning_ratio("conv1_1") == pytest.approx(0.42)
        assert schedule.pruning_ratio("conv1_2") == pytest.approx(0.78)
        assert schedule.pruning_ratio("conv4_1") == pytest.approx(0.68)
        assert schedule.pruning_ratio("conv4_2") == pytest.approx(0.73)
        assert schedule.pruning_ratio("fc6") == pytest.approx(0.96)
        assert schedule.pruning_ratio("fc7") == pytest.approx(0.96)

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
        assert "b" in schedule

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            PruningSchedule("bad", {"a": 1.2})


class TestNetworkPruning:
    def test_prune_network(self, tiny_architecture):
        network = tiny_architecture.build(seed=3)
        prune_network(network, {"conv1": 0.5, "fc3": 0.1})
        report = {r.name: r for r in network_density_report(network)}
        assert report["conv1"].density == pytest.approx(0.5, abs=0.01)
        assert report["fc3"].density == pytest.approx(0.1, abs=0.01)
        assert report["conv2"].density == 1.0  # unscheduled layers untouched

    def test_model_density(self, tiny_architecture):
        network = tiny_architecture.build(seed=3)
        prune_network(network, {"conv1": 0.5, "conv2": 0.5, "fc3": 0.5, "fc4": 0.5})
        assert model_density(network) == pytest.approx(0.5, abs=0.02)

    def test_mac_reduction_rate_vgg_band(self):
        """The paper reports a 3.06x MAC reduction for pruned VGG16."""
        from repro.workloads import synthetic_model_workload

        workload = synthetic_model_workload("vgg16", seed=1)
        reduction = workload.dense_ops / (2 * workload.accumulate_ops)
        assert reduction == pytest.approx(3.06, rel=0.03)

    def test_mac_reduction_rate_network(self, tiny_architecture):
        network = tiny_architecture.build(seed=3)
        prune_network(
            network, {"conv1": 0.5, "conv2": 0.5, "fc3": 0.5, "fc4": 0.5}
        )
        assert mac_reduction_rate(network) == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_the_layer(self, tiny_architecture, bad):
        network = tiny_architecture.build(seed=3)
        network.layer("conv2").weights[0, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="layer 'conv2'.*non-finite"):
            prune_network(network, {"conv1": 0.5, "conv2": 0.5})

    def test_actual_density_empty(self):
        assert actual_density(np.array([])) == 0.0
