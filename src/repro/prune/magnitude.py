"""Magnitude pruning (Deep Compression style, Han et al. 2015).

The paper prunes AlexNet and VGG16 with Han's scheme: per layer, the
smallest-magnitude weights are zeroed until only a target density survives.
We reproduce the *sparsification*, not the retraining (there is no training
data offline and the accelerator is insensitive to accuracy); the per-layer
densities come from the published Deep Compression tables, which the paper's
Table 1 'Pruning Ratio' column matches layer for layer.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..nn.network import Network


def prune_tensor(weights: np.ndarray, density: float) -> np.ndarray:
    """Zero all but the ``density`` fraction of largest-magnitude weights.

    Returns a new array. The kept set is exact top-k by value threshold:
    every weight with magnitude above the k-th largest is kept, and ties at
    that threshold keep the earliest entries in flat order, so the kept
    count is exact. Raises ``ValueError`` if the weights that would survive
    hold a NaN or an infinity.
    """
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
    # One float64 buffer beside the input: it finds the threshold, holds
    # |w| for the kept mask, then becomes the result.  The keep largest
    # magnitudes land in the tail; NaN sorts above inf.
    magnitude = np.abs(flat)
    magnitude.partition(cut)
    if not np.isfinite(magnitude[cut:].max()):
        raise ValueError("weights contain non-finite values (NaN or inf)")
    threshold = magnitude[cut]
    np.abs(flat, out=magnitude)
    kept = magnitude >= threshold
    excess = int(np.count_nonzero(kept)) - keep
    if excess:
        # More ties at the threshold than places left: drop the latest ones.
        ties = np.flatnonzero(magnitude == threshold)
        kept[ties[ties.size - excess :]] = False
    magnitude.fill(0.0)
    np.copyto(magnitude, flat, where=kept)
    return magnitude.reshape(arr.shape)


def prune_network(network: Network, densities: Mapping[str, float]) -> Network:
    """Prune every weighted layer of a network in place.

    Layers absent from ``densities`` are left dense. Returns the network for
    chaining. Raises ``ValueError`` naming the layer when its surviving
    weights are not finite.
    """
    for layer in network:
        weights = layer.weights
        if weights is None or layer.name not in densities:
            continue
        try:
            layer.weights = prune_tensor(weights, densities[layer.name])
        except ValueError as error:
            raise ValueError(f"layer {layer.name!r}: {error}") from None
    return network
