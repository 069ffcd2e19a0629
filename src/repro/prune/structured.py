"""Structured pruning: kernel- and channel-granular sparsity.

The related-work baseline [2] (Li et al., ASP-DAC'18) accelerates
*structurally* pruned models — whole kernels or input channels removed —
because lockstep hardware cannot exploit irregular sparsity. ABM-SpConv's
semi-synchronous CUs handle the irregular kind directly, so the natural
ablation is: at equal density, what do the two sparsity structures do to
the workload statistics and the accelerator's utilization?

:func:`prune_kernels` removes entire output-channel kernels (the
coarsest structure; surviving kernels stay dense).
"""

from __future__ import annotations

import numpy as np


def prune_kernels(weights: np.ndarray, density: float) -> np.ndarray:
    """Keep only the ``density`` fraction of kernels with largest L1 norm.

    ``weights`` is (M, N, K, K) (or (M, N) for FC); zeroed kernels produce
    dead output channels, which structured-sparsity hardware then skips
    wholesale.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    arr = np.asarray(weights, dtype=np.float64)
    kernels = arr.shape[0]
    keep = int(round(density * kernels))
    pruned = arr.copy()
    if keep == 0:
        return np.zeros_like(arr)
    if keep >= kernels:
        return pruned
    norms = np.abs(arr.reshape(kernels, -1)).sum(axis=1)
    drop = np.argsort(norms)[: kernels - keep]
    pruned[drop] = 0.0
    return pruned
