"""Tests for structured pruning and the structure ablation."""

import numpy as np
import pytest

from repro.core.encoding import encode_layer
from repro.prune.magnitude import prune_tensor
from repro.prune.structured import (
    prune_input_channels,
    prune_kernels,
    sparsity_structure_report,
)


class TestPruneKernels:
    def test_exact_kernel_count(self, rng):
        weights = rng.normal(size=(10, 4, 3, 3))
        pruned = prune_kernels(weights, density=0.4)
        alive = [m for m in range(10) if np.count_nonzero(pruned[m])]
        assert len(alive) == 4

    def test_keeps_largest_norms(self, rng):
        weights = rng.normal(size=(4, 2, 3, 3)) * np.array([1, 10, 2, 20]).reshape(
            4, 1, 1, 1
        )
        pruned = prune_kernels(weights, density=0.5)
        assert np.count_nonzero(pruned[1]) and np.count_nonzero(pruned[3])
        assert not np.count_nonzero(pruned[0]) and not np.count_nonzero(pruned[2])

    def test_survivors_untouched(self, rng):
        weights = rng.normal(size=(6, 3, 3, 3))
        pruned = prune_kernels(weights, density=0.5)
        for m in range(6):
            if np.count_nonzero(pruned[m]):
                assert np.array_equal(pruned[m], weights[m])

    def test_edge_densities(self, rng):
        weights = rng.normal(size=(4, 2, 3, 3))
        assert not prune_kernels(weights, 0.0).any()
        assert np.array_equal(prune_kernels(weights, 1.0), weights)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            prune_kernels(np.zeros((2, 2, 3, 3)), 1.5)


class TestPruneInputChannels:
    def test_exact_channel_count(self, rng):
        weights = rng.normal(size=(6, 10, 3, 3))
        pruned = prune_input_channels(weights, density=0.3)
        alive = [n for n in range(10) if np.count_nonzero(pruned[:, n])]
        assert len(alive) == 3

    def test_fc_weights(self, rng):
        weights = rng.normal(size=(8, 20))
        pruned = prune_input_channels(weights, density=0.5)
        alive = [n for n in range(20) if np.count_nonzero(pruned[:, n])]
        assert len(alive) == 10

    def test_rejects_flat(self):
        with pytest.raises(ValueError):
            prune_input_channels(np.zeros(8), 0.5)


class TestStructureReport:
    def test_unstructured_vs_structured_signature(self, rng):
        """Same element density, opposite structure signatures."""
        weights = rng.normal(size=(8, 8, 3, 3))
        unstructured = prune_tensor(weights, 0.5)
        structured = prune_kernels(weights, 0.5)
        report_u = sparsity_structure_report(unstructured)
        report_s = sparsity_structure_report(structured)
        assert report_u["element_density"] == pytest.approx(0.5, abs=0.01)
        assert report_s["element_density"] == pytest.approx(0.5, abs=0.01)
        # Unstructured: every kernel stays alive; structured: half die.
        assert report_u["kernel_density"] == 1.0
        assert report_s["kernel_density"] == pytest.approx(0.5)

    def test_structure_changes_abm_workload_shape(self, rng):
        """At equal density, kernel pruning concentrates work into fewer,
        heavier kernels — the imbalance ABM's scheduler must absorb."""
        weights = rng.normal(size=(8, 8, 3, 3))
        fmt_scale = 20.0
        unstructured = np.round(prune_tensor(weights, 0.5) * fmt_scale).astype(np.int64)
        structured = np.round(prune_kernels(weights, 0.5) * fmt_scale).astype(np.int64)
        enc_u = encode_layer("u", unstructured)
        enc_s = encode_layer("s", structured)
        nnz_u = [k.nonzero_count for k in enc_u.kernels]
        nnz_s = [k.nonzero_count for k in enc_s.kernels]
        assert np.std(nnz_s) > np.std(nnz_u)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            sparsity_structure_report(np.zeros(4))
