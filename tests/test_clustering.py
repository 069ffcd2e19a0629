"""Tests for Deep-Compression weight sharing (k-means clustering)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant.clustering import (
    ClusteredWeights,
    cluster_weights,
    kmeans_1d,
)


class TestKMeans1D:
    def test_exact_recovery_of_separated_clusters(self):
        values = np.concatenate([np.full(50, -3.0), np.full(50, 2.0), np.full(50, 7.0)])
        centroids, assignments = kmeans_1d(values, clusters=3)
        assert sorted(np.round(centroids, 6)) == [-3.0, 2.0, 7.0]
        assert np.unique(assignments).size == 3

    def test_single_value_collapses(self):
        centroids, assignments = kmeans_1d(np.full(10, 4.2), clusters=5)
        assert centroids.tolist() == [4.2]
        assert not assignments.any()

    def test_empty_input(self):
        centroids, assignments = kmeans_1d(np.empty(0), clusters=4)
        assert centroids.size == 0
        assert assignments.size == 0

    def test_clusters_capped_by_samples(self):
        centroids, _ = kmeans_1d(np.array([1.0, 5.0]), clusters=10)
        assert centroids.size <= 2

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            kmeans_1d(np.array([1.0]), clusters=0)

    @given(
        st.lists(st.floats(-10, 10), min_size=5, max_size=60),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_assignment_is_nearest_centroid(self, values, clusters):
        arr = np.asarray(values)
        centroids, assignments = kmeans_1d(arr, clusters)
        for value, label in zip(arr, assignments):
            nearest = np.argmin(np.abs(centroids - value))
            assert abs(centroids[label] - value) <= abs(centroids[nearest] - value) + 1e-9


class TestClusterWeights:
    def test_zeros_stay_zero(self, rng):
        weights = rng.normal(size=(4, 3, 3))
        weights[0] = 0.0
        clustered = cluster_weights(weights, clusters=8)
        assert not clustered.dense()[0].any()
        assert (clustered.assignments.reshape(weights.shape)[0] == -1).all()

    def test_distinct_values_bounded(self, rng):
        weights = rng.normal(size=(8, 8))
        clustered = cluster_weights(weights, clusters=5)
        assert clustered.distinct_values <= 5
        dense = clustered.dense()
        assert np.unique(dense[dense != 0]).size <= 5

    def test_error_decreases_with_clusters(self, rng):
        weights = rng.normal(size=2000)

        def rms(clusters):
            dense = cluster_weights(weights, clusters).dense()
            return np.sqrt(np.mean((weights - dense) ** 2))

        assert rms(64) < rms(4)

    def test_all_zero_tensor(self):
        clustered = cluster_weights(np.zeros((3, 3)), clusters=4)
        assert clustered.distinct_values == 0
        assert not clustered.dense().any()

    def test_fixed_point_view(self, rng):
        weights = rng.normal(size=(6, 6))
        clustered = cluster_weights(weights, clusters=6)
        tensor = clustered.to_fixed_point(total_bits=8)
        # Fixed-point rounding can only merge clusters, never split them.
        assert tensor.distinct_nonzero_values().size <= clustered.distinct_values


class TestPipelineIntegration:
    def test_weight_sharing_cuts_multiplies(self, tiny_architecture, rng):
        """Clustering is the mechanism behind ABM's multiply savings."""
        from repro.pipeline import QuantizedPipeline
        from repro.prune.schedules import uniform_schedule

        def run(clusters):
            network = tiny_architecture.build(seed=6)
            x = rng.normal(size=network.input_shape.as_tuple())
            names = [l.name for l in network.accelerated_layers()]
            pipeline = QuantizedPipeline(network, weight_clusters=clusters)
            pipeline.prune(uniform_schedule(names, 0.5).densities)
            pipeline.calibrate(x)
            pipeline.quantize()
            return pipeline.run(x)

        unclustered = run(None)
        clustered = run(12)
        assert clustered.multiply_ops < unclustered.multiply_ops
        assert clustered.accumulate_ops == unclustered.accumulate_ops

    def test_clustered_model_still_classifies(self, tiny_architecture, rng):
        from repro.pipeline import QuantizedPipeline
        from repro.prune.schedules import uniform_schedule

        network = tiny_architecture.build(seed=6)
        x = rng.normal(size=network.input_shape.as_tuple())
        names = [l.name for l in network.accelerated_layers()]
        pipeline = QuantizedPipeline(network, weight_clusters=32)
        pipeline.prune(uniform_schedule(names, 0.5).densities)
        pipeline.calibrate(x)
        pipeline.quantize()
        result = pipeline.run(x)
        reference = pipeline.run_float(x)
        assert int(np.argmax(result.output)) == int(np.argmax(reference))
