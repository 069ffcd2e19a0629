"""Synthetic pruned/quantized workload generation.

Two levels of fidelity, both calibrated to the paper's statistics:

- **Statistics-only** (:func:`synthesize_layer_stats`,
  :func:`synthetic_model_workload`): draws per-kernel nonzero and
  distinct-value counts without materializing weights, so full-size VGG16
  (138 M parameters) can be simulated on a laptop.
- **Concrete tensors** (:func:`synthesize_quantized_layer`,
  :func:`synthetic_feature_codes`): integer weight/feature tensors with the
  same statistics, used for functional runs and tests.

Determinism: everything is driven by an explicit numpy Generator seed.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.specs import LayerSpec
from ..hw.workload import LayerWorkload, ModelWorkload, workload_from_arrays
from ..nn.models import get_architecture
from ..prune.schedules import PruningSchedule, deep_compression_schedule
from .codebooks import codebook_size, codebook_values


def synthesize_layer_stats(
    spec: LayerSpec,
    density: float,
    codebook: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw per-kernel (nonzeros, distinct values) for one layer.

    Nonzero counts are Binomial(weights_per_kernel, density) — magnitude
    pruning with a global layer threshold leaves near-independent survival
    per weight. Distinct counts come from actually drawing each kernel's
    survivors uniformly from the codebook (multinomial occupancy), all
    kernels in one draw. A kernel with no survivors consumes no random
    numbers, so the draw matches one ``multinomial`` call per nonempty
    kernel in order, generator state included.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    nonzeros = rng.binomial(
        spec.weights_per_kernel, density, size=spec.out_channels
    ).astype(np.int64)
    counts = rng.multinomial(nonzeros, np.full(codebook, 1.0 / codebook))
    return nonzeros, np.count_nonzero(counts, axis=1).astype(np.int64)


def synthetic_layer_workload(
    spec: LayerSpec,
    density: float,
    codebook: int,
    rng: np.random.Generator,
) -> LayerWorkload:
    """A :class:`LayerWorkload` with synthetic calibrated statistics."""
    nonzeros, distinct = synthesize_layer_stats(spec, density, codebook, rng)
    return workload_from_arrays(spec, nonzeros, distinct)


def synthetic_model_workload(
    model: str,
    seed: int = 0,
    schedule: Optional[PruningSchedule] = None,
    scale: float = 1.0,
    spatial_scale: float = 1.0,
) -> ModelWorkload:
    """Synthetic workload for a registered model (full-size by default).

    Uses the Deep Compression pruning schedule and the calibrated per-layer
    codebooks unless a custom schedule is given. ``scale`` and
    ``spatial_scale`` shrink channel counts and input resolution the same
    way :meth:`Architecture.build` does, for workloads matching the scaled
    executable models the benchmarks run.
    """
    architecture = get_architecture(model)
    if schedule is None:
        schedule = deep_compression_schedule(model)
    rng = np.random.default_rng(seed)
    layers = []
    for spec in architecture.accelerated_specs(
        scale=scale, spatial_scale=spatial_scale
    ):
        layers.append(
            synthetic_layer_workload(
                spec,
                schedule.density(spec.name),
                codebook_size(model, spec.name),
                rng,
            )
        )
    return ModelWorkload(name=architecture.name, layers=tuple(layers))


def synthesize_quantized_layer(
    spec: LayerSpec,
    density: float,
    codebook: int,
    rng: np.random.Generator,
    weight_bits: int = 8,
) -> np.ndarray:
    """Concrete integer weight tensor (M, N/groups, K, K) with the target
    density and codebook statistics."""
    values = codebook_values(codebook, weight_bits)
    shape = spec.weight_shape()
    total = int(np.prod(shape))
    flat = np.zeros(total, dtype=np.int64)
    nnz = int(round(density * total))
    if nnz:
        positions = rng.choice(total, size=nnz, replace=False)
        flat[positions] = rng.choice(values, size=nnz)
    return flat.reshape(shape)


def synthetic_feature_codes(
    shape: Tuple[int, ...],
    rng: np.random.Generator,
    feature_bits: int = 8,
) -> np.ndarray:
    """Integer feature-map codes uniform over the signed feature format."""
    limit = 1 << (feature_bits - 1)
    return rng.integers(-limit, limit, size=shape, dtype=np.int64)
