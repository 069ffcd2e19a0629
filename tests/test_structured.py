"""Tests for structured pruning and the structure ablation."""

import numpy as np
import pytest

from repro.core.encoding import encode_layer
from repro.prune.magnitude import prune_tensor
from repro.prune.structured import prune_kernels


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


class TestStructureReport:
    def test_unstructured_vs_structured_signature(self, rng):
        """Same element density, opposite structure signatures."""
        weights = rng.normal(size=(8, 8, 3, 3))
        unstructured = prune_tensor(weights, 0.5)
        structured = prune_kernels(weights, 0.5)
        for pruned in (unstructured, structured):
            density = np.count_nonzero(pruned) / pruned.size
            assert density == pytest.approx(0.5, abs=0.01)

        def alive_kernels(pruned):
            return np.count_nonzero(pruned.reshape(8, -1).any(axis=1)) / 8

        # Unstructured: every kernel stays alive; structured: half die.
        assert alive_kernels(unstructured) == 1.0
        assert alive_kernels(structured) == pytest.approx(0.5)

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
