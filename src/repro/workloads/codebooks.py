"""Per-layer effective weight codebooks, calibrated to paper Table 1.

The paper's models are pruned (Deep Compression) and quantized to 8 bits
(Ristretto). Table 1's measured multiply counts show that a kernel contains
far fewer *distinct* nonzero values than 8-bit quantization nominally
allows — e.g. CONV4_2 averages ~20 distinct values per 1,243 surviving
weights, FC6 only ~9. Trained-then-pruned-then-quantized weights cluster
heavily (pruning removes the dense center of the distribution and dynamic
fixed point maps the survivors onto few codes).

Without the original checkpoints we model this with a per-layer *effective
codebook*: surviving weights draw uniformly from ``size`` distinct nonzero
codes. The sizes below are solved from Table 1's Acc/Mult columns via
``E[distinct] = V * (1 - (1 - 1/V)**nnz)``; layers the paper doesn't list
use the value of the nearest listed layer of similar depth/shape.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

#: Effective codebook sizes for VGG16 (layers in Table 1 are exact fits).
VGG16_CODEBOOKS: Mapping[str, int] = {
    "conv1_1": 4,  # Table 1: 15.7 nnz -> 3.83 distinct
    "conv1_2": 39,  # Table 1: 126.7 nnz -> 37.3 distinct
    "conv2_1": 34,
    "conv2_2": 34,
    "conv3_1": 28,
    "conv3_2": 28,
    "conv3_3": 28,
    "conv4_1": 23,  # Table 1: 737.3 nnz -> 23.0 distinct
    "conv4_2": 20,  # Table 1: 1244.2 nnz -> 19.8 distinct
    "conv4_3": 20,
    "conv5_1": 20,
    "conv5_2": 20,
    "conv5_3": 20,
    "fc6": 9,  # Table 1: 1003.5 nnz -> 9.0 distinct
    "fc7": 5,  # Table 1: 163.8 nnz -> 5.13 distinct
    "fc8": 12,
}

#: Effective codebook sizes for AlexNet (no per-layer Table 1 data; chosen
#: by analogy with VGG16 layers of similar depth and kernel volume).
ALEXNET_CODEBOOKS: Mapping[str, int] = {
    "conv1": 30,
    "conv2": 24,
    "conv3": 22,
    "conv4": 22,
    "conv5": 22,
    "fc6": 9,
    "fc7": 5,
    "fc8": 12,
}

_CODEBOOKS = {
    "alexnet": ALEXNET_CODEBOOKS,
    "vgg16": VGG16_CODEBOOKS,
}

#: Fallback codebook size for custom models.
DEFAULT_CODEBOOK_SIZE = 24


def codebook_sizes(model: str) -> Mapping[str, int]:
    """The calibrated codebook table of a known model."""
    key = model.lower()
    if key not in _CODEBOOKS:
        raise KeyError(
            f"no calibrated codebooks for {model!r}; "
            f"available: {', '.join(sorted(_CODEBOOKS))}"
        )
    return _CODEBOOKS[key]


def codebook_size(model: str, layer: str) -> int:
    """Codebook size of one layer (falls back to the default)."""
    return codebook_sizes(model).get(layer, DEFAULT_CODEBOOK_SIZE)


def codebook_values(size: int) -> np.ndarray:
    """Concrete distinct nonzero codes for a codebook of ``size`` values.

    Pruning removes small magnitudes, so the surviving codes sit away from
    zero; we spread them symmetrically over the upper magnitude range of
    the signed 8-bit format. Only distinctness matters to the
    op counts — the specific values matter only for functional runs.
    """
    if size < 1:
        raise ValueError("codebook size must be >= 1")
    max_code = 127
    per_side = max(1, size // 2)
    # Magnitudes from ~max/4 up to max, evenly spread and deduplicated.
    magnitudes = np.unique(
        np.round(np.linspace(max_code // 4 + 1, max_code, per_side)).astype(np.int64)
    )
    values = np.concatenate([-magnitudes[::-1], magnitudes])
    if size % 2:
        extra = np.int64(max_code // 4)
        values = np.concatenate([values, [extra]])
    values = np.unique(values)[:size]
    if values.size < size:  # tiny formats: fill with remaining codes
        pool = np.setdiff1d(
            np.arange(-max_code, max_code + 1, dtype=np.int64), np.append(values, 0)
        )
        values = np.concatenate([values, pool[: size - values.size]])
    return np.sort(values)


def expected_distinct(nnz: float, size: int) -> float:
    """E[distinct values] when drawing nnz weights uniformly from the book."""
    if size < 1:
        raise ValueError("codebook size must be >= 1")
    if nnz <= 0:
        return 0.0
    return size * (1.0 - (1.0 - 1.0 / size) ** nnz)
