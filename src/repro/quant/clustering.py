"""Weight-sharing quantization via 1-D k-means (Deep Compression style).

The paper's models are "pruned by the scheme proposed by Han et al. [7]",
whose quantization stage clusters each layer's surviving weights around k
shared centroids — *this* is the mechanism that leaves a kernel with only
a handful of distinct values (Table 1 measures ~20 for CONV4_2, ~9 for
FC6), which ABM-SpConv then exploits. The calibrated synthetic workloads
model the effect statistically; this module implements the mechanism
itself so the whole chain — cluster, fixed-point-encode the codebook,
run ABM — can be exercised end to end.

The solver is Lloyd's algorithm on the nonzero weights, with centroids
initialized by linear spacing over the weight range (Han et al.'s 'linear'
initialization, which they found best preserves the long tails).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fixed_point import fit_qformat
from .quantizer import QuantizedTensor


@dataclass(frozen=True)
class ClusteredWeights:
    """A layer's weights after weight-sharing quantization."""

    #: Cluster assignment per weight (-1 for pruned zeros).
    assignments: np.ndarray
    #: Real-valued centroids, one per cluster.
    centroids: np.ndarray
    shape: Tuple[int, ...]

    def dense(self) -> np.ndarray:
        """Reconstructed real-valued weight tensor."""
        flat = np.zeros(int(np.prod(self.shape)))
        mask = self.assignments >= 0
        flat[mask] = self.centroids[self.assignments[mask]]
        return flat.reshape(self.shape)

    @property
    def distinct_values(self) -> int:
        used = np.unique(self.assignments[self.assignments >= 0])
        return int(used.size)

    def to_fixed_point(self, total_bits: int = 8) -> QuantizedTensor:
        """Fixed-point view: centroids rounded to the layer's format.

        Distinct centroids may merge when they round to the same code —
        the hardware sees at most as many values as the codebook holds.
        """
        fmt = fit_qformat(self.centroids if self.centroids.size else np.zeros(1), total_bits)
        return QuantizedTensor(fmt.quantize(self.dense()), fmt)


def kmeans_1d(
    values: np.ndarray,
    clusters: int,
    iterations: int = 25,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm in one dimension.

    Returns (centroids, assignments). Centroids are linearly initialized
    over [min, max]; empty clusters are dropped at the end.
    """
    if clusters < 1:
        raise ValueError("need at least one cluster")
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    clusters = min(clusters, values.size)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return np.array([lo]), np.zeros(values.size, dtype=np.int64)
    centroids = np.linspace(lo, hi, clusters)
    assignments = np.zeros(values.size, dtype=np.int64)
    for _ in range(iterations):
        # 1-D assignment: nearest centroid via searchsorted on midpoints.
        midpoints = (centroids[1:] + centroids[:-1]) / 2.0
        new_assignments = np.searchsorted(midpoints, values)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
        sums = np.bincount(assignments, weights=values, minlength=centroids.size)
        counts = np.bincount(assignments, minlength=centroids.size)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied]
        centroids = np.sort(centroids)
    # Compact away empty clusters.
    counts = np.bincount(assignments, minlength=centroids.size)
    keep = np.flatnonzero(counts)
    remap = -np.ones(centroids.size, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    return centroids[keep], remap[assignments]


def cluster_weights(
    weights: np.ndarray,
    clusters: int,
    iterations: int = 25,
) -> ClusteredWeights:
    """Weight-share a (pruned) tensor: zeros stay zero, survivors cluster."""
    arr = np.asarray(weights, dtype=np.float64)
    flat = arr.reshape(-1)
    nonzero_positions = np.flatnonzero(flat)
    assignments = -np.ones(flat.size, dtype=np.int64)
    if nonzero_positions.size:
        centroids, labels = kmeans_1d(flat[nonzero_positions], clusters, iterations)
        assignments[nonzero_positions] = labels
    else:
        centroids = np.empty(0)
    return ClusteredWeights(
        assignments=assignments, centroids=centroids, shape=tuple(arr.shape)
    )


#: Cluster counts Deep Compression reports: 256 for conv, 32 for FC layers.
DEEP_COMPRESSION_CONV_CLUSTERS = 256
DEEP_COMPRESSION_FC_CLUSTERS = 32
