"""Operation-count analysis of the four convolution schemes (paper Table 1).

The paper compares, per layer and for whole models, the number of arithmetic
operations required by:

- **SDConv** — dense spatial convolution: 2 ops per MAC.
- **FDConv** — frequency-domain convolution as implemented by Zeng et
  al. [3]: the paper credits it a uniform 3.3x MAC reduction on convolution
  layers (FC layers gain nothing; Table 1 shows FC6 unchanged at 205 MOP).
- **SpConv** — zero-skipping sparse convolution: 2 ops per surviving MAC.
- **ABM-SpConv** — accumulates equal to the surviving weight count (1 op
  per accumulated pixel) and multiplies equal to the number of *distinct
  nonzero values* per kernel per output pixel.

Counts are measured from an actual encoded weight tensor
(:func:`measured_layer_counts`); full-size models take the same formulas
from their workload statistics (:mod:`repro.experiments.table1`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .encoding import EncodedLayer
from .specs import LayerSpec

#: MAC reduction the paper credits the FDConv baseline [3] on conv layers.
FDCONV_REDUCTION = 3.3


@dataclass(frozen=True)
class LayerOpCounts:
    """All four schemes' op counts for one layer."""

    name: str
    sdconv_ops: float
    fdconv_ops: float
    spconv_ops: float
    abm_accumulates: float
    abm_multiplies: float

    @property
    def abm_ops(self) -> float:
        return self.abm_accumulates + self.abm_multiplies

    @property
    def acc_to_mult_ratio(self) -> float:
        """Table 1's last column (Acc./Mult.)."""
        if self.abm_multiplies == 0:
            return 0.0
        return self.abm_accumulates / self.abm_multiplies


@dataclass(frozen=True)
class ModelOpCounts:
    """Whole-model totals (Table 1 'Entire CNN' row)."""

    layers: Sequence[LayerOpCounts]

    def _total(self, attr: str) -> float:
        return float(sum(getattr(layer, attr) for layer in self.layers))

    @property
    def sdconv_ops(self) -> float:
        return self._total("sdconv_ops")

    @property
    def fdconv_ops(self) -> float:
        return self._total("fdconv_ops")

    @property
    def spconv_ops(self) -> float:
        return self._total("spconv_ops")

    @property
    def abm_accumulates(self) -> float:
        return self._total("abm_accumulates")

    @property
    def abm_multiplies(self) -> float:
        return self._total("abm_multiplies")

    @property
    def abm_ops(self) -> float:
        return self.abm_accumulates + self.abm_multiplies

    @property
    def saved_vs_sdconv(self) -> float:
        """'#OP Saved' vs dense (paper: 83.6% for VGG16)."""
        return 1.0 - self.abm_ops / self.sdconv_ops

    @property
    def saved_vs_fdconv(self) -> float:
        """Reduction over FDConv [3] (paper: 47.1%)."""
        return 1.0 - self.abm_ops / self.fdconv_ops

    @property
    def saved_vs_spconv(self) -> float:
        """Reduction over SpConv [7] (paper: 50%)."""
        return 1.0 - self.abm_ops / self.spconv_ops


def measured_layer_counts(spec: LayerSpec, encoded: EncodedLayer) -> LayerOpCounts:
    """Op counts measured from an actual encoded weight tensor."""
    if encoded.out_channels != spec.out_channels:
        raise ValueError(
            f"{spec.name}: encoded layer has {encoded.out_channels} kernels, "
            f"spec expects {spec.out_channels}"
        )
    nnz = encoded.nonzero_count
    distinct_total = int(encoded.distinct.sum())
    reduction = FDCONV_REDUCTION if spec.kind == "conv" else 1.0
    return LayerOpCounts(
        name=spec.name,
        sdconv_ops=float(spec.dense_ops),
        fdconv_ops=spec.dense_ops / reduction,
        spconv_ops=2.0 * nnz * spec.output_pixels,
        abm_accumulates=float(nnz * spec.output_pixels),
        abm_multiplies=float(distinct_total * spec.output_pixels),
    )


def expected_distinct_values(
    nnz_per_kernel: float, codebook_size: int, concentration: Optional[np.ndarray] = None
) -> float:
    """Expected distinct values when drawing nnz weights from a codebook.

    With a uniform codebook of V values, drawing n weights independently
    gives ``V * (1 - (1 - 1/V)**n)`` distinct values in expectation; a
    non-uniform ``concentration`` distribution replaces the uniform term.
    Used to calibrate synthetic weights against Table 1's Mult column.
    """
    if codebook_size < 1:
        raise ValueError("codebook must have at least one value")
    if nnz_per_kernel < 0:
        raise ValueError("nnz cannot be negative")
    if concentration is None:
        probabilities = np.full(codebook_size, 1.0 / codebook_size)
    else:
        probabilities = np.asarray(concentration, dtype=np.float64)
        if probabilities.size != codebook_size or probabilities.min() < 0:
            raise ValueError("concentration must be a distribution over the codebook")
        probabilities = probabilities / probabilities.sum()
    return float(np.sum(1.0 - (1.0 - probabilities) ** nnz_per_kernel))
