"""Winograd minimal filtering, F(2x2,3x3) and F(4x4,3x3), as a scheme model.

The classic reduced-multiplication scheme for 3x3 stride-1 layers (Lavin &
Gray, 2016) and the workhorse of layer-heterogeneous FPGA designs
(HPIPE-style): an m x m output tile costs ``(m+2)^2`` elementwise
multiplies instead of ``9 m^2`` MACs — 2.25x fewer for F(2x2,3x3), 4x for
F(4x4,3x3) — at the price of cheap add-only input/output transforms.

This module models the scheme; it does not execute it. It gives the
analytic op counts (the transform matrices are kept only to count their
adds), the cycle prediction of a Winograd unit on the accelerator's shared
multipliers, and the fabric that unit would add next to the ABM design.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from ..core.schemes import (
    ConvScheme,
    SchemeOps,
    SchemeResources,
    register_scheme_model,
)
from ..core.specs import LayerSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.config import AcceleratorConfig
    from ..hw.workload import LayerWorkload

# ---------------------------------------------------------------------------
# Data/output transform matrices (Lavin & Gray 2016, standard points).
# ---------------------------------------------------------------------------

_BT2 = np.array(
    [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ]
)
_AT2 = np.array(
    [
        [1.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, -1.0],
    ]
)

_BT4 = np.array(
    [
        [4.0, 0.0, -5.0, 0.0, 1.0, 0.0],
        [0.0, -4.0, -4.0, 1.0, 1.0, 0.0],
        [0.0, 4.0, -4.0, -1.0, 1.0, 0.0],
        [0.0, -2.0, -1.0, 2.0, 1.0, 0.0],
        [0.0, 2.0, -1.0, -2.0, 1.0, 0.0],
        [0.0, 4.0, 0.0, -5.0, 0.0, 1.0],
    ]
)
_AT4 = np.array(
    [
        [1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 2.0, -2.0, 0.0],
        [0.0, 1.0, 1.0, 4.0, 4.0, 0.0],
        [0.0, 1.0, -1.0, 8.0, -8.0, 1.0],
    ]
)

#: tile (m) -> (B^T, A^T); only KxK = 3x3 kernels are supported. The
#: kernel transform ``G`` amortizes across pixels and is not counted.
TRANSFORMS: Dict[int, Tuple[np.ndarray, np.ndarray]] = {
    2: (_BT2, _AT2),
    4: (_BT4, _AT4),
}


def transforms_for_tile(tile: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (B^T, A^T) transform pair for an output tile edge."""
    try:
        return TRANSFORMS[tile]
    except KeyError:
        raise ValueError(
            f"unsupported Winograd tile {tile}; choose from {sorted(TRANSFORMS)}"
        ) from None


def winograd_reduction(tile: int) -> float:
    """Multiply reduction over dense 3x3: ``9 m^2 / (m+2)^2``."""
    transforms_for_tile(tile)
    return 9.0 * tile * tile / float((tile + 2) ** 2)


def _matrix_adds(matrix: np.ndarray) -> int:
    """Adds to apply the matrix to one column: sum over rows of (nnz - 1)."""
    nnz = (matrix != 0).sum(axis=1)
    return int(np.maximum(nnz - 1, 0).sum())


def winograd_supported(spec: LayerSpec) -> bool:
    """Winograd applies to 3x3 stride-1 conv layers (any padding/groups)."""
    return (not spec.is_fc) and spec.kernel == 3 and spec.stride == 1


def winograd_ops(spec: LayerSpec, tile: int) -> SchemeOps:
    """Analytic per-image op counts of the layer under Winograd.

    Multiplies are the elementwise-product stage (``(m+2)^2`` per output
    tile per (input, output) channel pair); accumulates cover the channel
    reduction of the products plus the exact add counts of the input and
    output transforms (kernel transforms amortize across pixels and are
    excluded).
    """
    if not winograd_supported(spec):
        raise ValueError(f"{spec.name}: Winograd needs a 3x3 stride-1 conv layer")
    bt, at = transforms_for_tile(tile)
    m = tile
    t = m + 2
    tiles = math.ceil(spec.out_rows / m) * math.ceil(spec.out_cols / m)
    group_in = spec.in_channels // spec.groups
    multiplies = float(spec.out_channels) * group_in * t * t * tiles
    elem_adds = float(spec.out_channels) * max(0, group_in - 1) * t * t * tiles
    in_adds = 2.0 * _matrix_adds(bt) * t * spec.in_channels * tiles
    out_adds = float(_matrix_adds(at)) * (t + m) * spec.out_channels * tiles
    return SchemeOps(multiplies=multiplies, accumulates=elem_adds + in_adds + out_adds)


# ---------------------------------------------------------------------------
# Scheme model.
# ---------------------------------------------------------------------------

#: Modeled ALMs per CU for the transform engines: pipelined B^T/A^T
#: shift-and-add adder networks processing one tile column per cycle
#: (WinoFPGA-style; the multiplies themselves reuse the CU's shared DSP
#: multipliers). F(4x4,3x3)'s 6-wide trees with x4/x5/x8 taps cost ~3x
#: the F(2x2,3x3) trees. Plus M20K tile buffers per CU.
_TRANSFORM_ALMS = {2: 900, 4: 2600}
_TILE_M20KS = {2: 6, 4: 10}


class WinogradModel:
    """Winograd F(m x m, 3x3) as a :class:`SchemeModel`."""

    taxonomy = ConvScheme.FDCONV

    def __init__(self, tile: int) -> None:
        transforms_for_tile(tile)
        self.tile = tile
        self.name = f"winograd{tile}"

    def supports(self, spec: LayerSpec) -> bool:
        return winograd_supported(spec)

    def layer_ops(self, workload: "LayerWorkload") -> SchemeOps:
        return winograd_ops(workload.spec, self.tile)

    def layer_cycles(
        self, workload: "LayerWorkload", config: "AcceleratorConfig"
    ) -> float:
        """A Winograd unit on the shared multiplier bank: one elementwise
        multiply per multiplier per cycle, transforms overlapped in the
        ALM adder trees — effective MAC rate ``R_wino * N_mult``."""
        spec = workload.spec
        if not self.supports(spec):
            return math.inf
        rate = winograd_reduction(self.tile) * config.total_multipliers
        return spec.macs / rate

    def resource_overhead(self, config: "AcceleratorConfig") -> SchemeResources:
        return SchemeResources(
            alms=_TRANSFORM_ALMS[self.tile] * config.n_cu,
            dsps=0,
            m20ks=_TILE_M20KS[self.tile] * config.n_cu,
        )


register_scheme_model(WinogradModel(2))
register_scheme_model(WinogradModel(4))
