"""Winograd minimal-filtering convolution: F(2x2,3x3) and F(4x4,3x3).

The classic reduced-multiplication scheme for 3x3 stride-1 layers (Lavin &
Gray, 2016) and the workhorse of layer-heterogeneous FPGA designs
(HPIPE-style): an m x m output tile costs ``(m+2)^2`` elementwise
multiplies instead of ``9 m^2`` MACs — 2.25x fewer for F(2x2,3x3), 4x for
F(4x4,3x3) — at the price of cheap add-only input/output transforms.

Numerics matter here because the rest of the system is integer-exact:

- **F(2x2,3x3) is bit-exact on integer codes.** Every entry of ``B^T`` and
  ``A^T`` is in {0, +-1, +-2} and every entry of ``G`` is a multiple of
  1/2, so all intermediates are dyadic rationals with denominator at most
  4. Executed in float64 they are *exactly representable*, and provided
  ``81 * C_g * max|x| * max|w| + max|bias| < 2**51`` (checked at compile
  time by the fused model plan, mirroring the GEMM datapath's 2**53 proof)
  no magnitude ever loses a bit — the result equals the integer
  convolution term for term.
- **F(4x4,3x3) is exact after rounding.** ``G`` contains 1/6 and 1/24,
  which are not dyadic; the float64 result carries ~1e-12 relative error,
  so consumers round to the nearest integer (error must be < 0.5 — easily
  true at 8-bit code magnitudes) before the integer epilogue.

Both tiles execute as batched numpy fast paths: the elementwise stage is
``(m+2)^2`` BLAS GEMMs of shape (M_g x C_g) x (C_g x B*tiles) in a single
broadcast ``matmul``, and each separable transform folds into *one* large
Kronecker GEMM over the flattened tile axis — ``B^T (x) B^T`` applied to
a ``(t^2, C*B*tiles)`` gather of shifted tile slices, ``A^T (x) A^T``
applied to the product stack. That keeps the whole kernel at three GEMMs
plus one strided gather per batch, which is what lets it undercut the
im2col+GEMM datapath on a memory-bound host. The summation order differs
from the textbook ``B^T d B`` nesting but every intermediate is an
exactly-representable dyadic value, so bit-exactness is unaffected.
Kernel transforms ``U = G g G^T`` are cached per compiled layer plan
(LRU, registered with telemetry as ``baselines.winograd``).
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from ..core.abm import ConvGeometry
from ..core.schemes import (
    ConvScheme,
    SchemeOps,
    SchemeResources,
    register_scheme_model,
)
from ..core.specs import LayerSpec
from ..telemetry.caches import CacheStats, register_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import LayerPlan
    from ..hw.config import AcceleratorConfig
    from ..hw.workload import LayerWorkload

# ---------------------------------------------------------------------------
# Transform matrices (Lavin & Gray 2016, standard polynomial points).
# ---------------------------------------------------------------------------

_BT2 = np.array(
    [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ]
)
_G2 = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [0.5, -0.5, 0.5],
        [0.0, 0.0, 1.0],
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
_G4 = np.array(
    [
        [1.0 / 4.0, 0.0, 0.0],
        [-1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0],
        [-1.0 / 6.0, 1.0 / 6.0, -1.0 / 6.0],
        [1.0 / 24.0, 1.0 / 12.0, 1.0 / 6.0],
        [1.0 / 24.0, -1.0 / 12.0, 1.0 / 6.0],
        [0.0, 0.0, 1.0],
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

#: tile (m) -> (B^T, G, A^T); only KxK = 3x3 kernels are supported.
TRANSFORMS: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {
    2: (_BT2, _G2, _AT2),
    4: (_BT4, _G4, _AT4),
}

#: Tiles whose transforms are purely dyadic — bit-exact in float64.
EXACT_TILES = (2,)


def transforms_for_tile(tile: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (B^T, G, A^T) transform triple for an output tile edge."""
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
    excluded, matching how the executable caches them).
    """
    if not winograd_supported(spec):
        raise ValueError(f"{spec.name}: Winograd needs a 3x3 stride-1 conv layer")
    bt, _, at = transforms_for_tile(tile)
    m = tile
    t = m + 2
    tiles = math.ceil(spec.out_rows / m) * math.ceil(spec.out_cols / m)
    group_in = spec.in_channels // spec.groups
    multiplies = float(spec.out_channels) * group_in * t * t * tiles
    elem_adds = float(spec.out_channels) * max(0, group_in - 1) * t * t * tiles
    in_adds = 2.0 * _matrix_adds(bt) * t * spec.in_channels * tiles
    out_adds = float(_matrix_adds(at)) * (t + m) * spec.out_channels * tiles
    return SchemeOps(multiplies=multiplies, accumulates=elem_adds + in_adds + out_adds)


#: tile -> (B^T (x) B^T, A^T (x) A^T): the separable input/output
#: transforms as single matrices over the row-major flattened tile axis
#: q = a_row * t + b_col.
_KRON_TRANSFORMS: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _kron_transforms(tile: int) -> Tuple[np.ndarray, np.ndarray]:
    cached = _KRON_TRANSFORMS.get(tile)
    if cached is None:
        bt, _, at = transforms_for_tile(tile)
        cached = (np.kron(bt, bt), np.kron(at, at))
        _KRON_TRANSFORMS[tile] = cached
    return cached


def winograd_kernel_transform(weights: np.ndarray, tile: int) -> np.ndarray:
    """``U = G g G^T`` for a (M, C, 3, 3) weight tensor -> (M, C, t, t)."""
    _, g, _ = transforms_for_tile(tile)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4 or weights.shape[2:] != (3, 3):
        raise ValueError(f"expected (M, C, 3, 3) weights, got {weights.shape}")
    return g @ weights @ g.T


def winograd_raw(
    batch: np.ndarray,
    geometry: ConvGeometry,
    kernel_transforms: Sequence[np.ndarray],
    tile: int = 2,
    bias_codes: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, int, int]:
    """Batched Winograd convolution producing raw float64 sums.

    ``batch`` is (B, C, H, W) integer codes; ``kernel_transforms`` holds one
    pre-transformed ``U`` tensor of shape (group_out, C_g, t, t) per channel
    group. Returns ``(raw, images, out_rows, out_cols)`` with ``raw`` shaped
    (M, B * out_rows * out_cols) kernel-major — the same layout the ABM
    plan's GEMM produces, so the fused epilogue is shared.
    """
    transforms_for_tile(tile)
    batch = np.asarray(batch)
    if batch.ndim != 4:
        raise ValueError(f"expected a BCHW batch, got shape {batch.shape}")
    if geometry.kernel != 3 or geometry.stride != 1:
        raise ValueError("Winograd execution needs kernel=3, stride=1")
    images, channels, rows, cols = batch.shape
    groups = geometry.groups
    if len(kernel_transforms) != groups:
        raise ValueError(
            f"{len(kernel_transforms)} kernel transforms for {groups} groups"
        )
    group_in = channels // groups
    group_out = kernel_transforms[0].shape[0]
    m_out = group_out * groups
    pad = geometry.padding
    out_rows = rows + 2 * pad - 2
    out_cols = cols + 2 * pad - 2
    if out_rows < 1 or out_cols < 1:
        raise ValueError("convolution geometry does not fit the input")
    m = tile
    t = m + 2
    tiles_r = -(-out_rows // m)
    tiles_c = -(-out_cols // m)
    rows_in = (tiles_r - 1) * m + t
    cols_in = (tiles_c - 1) * m + t
    n_tiles = images * tiles_r * tiles_c
    k_in, k_out = _kron_transforms(tile)
    # One zero-padded float64 staging array covers conv padding and the
    # ragged last tile; the extra zeros contribute exact zero terms.
    # Channel-major layout so the elementwise GEMM sees (C_g, B*tiles)
    # columns without a scattered transpose.
    work = np.zeros((channels, images, rows_in, cols_in), dtype=np.float64)
    work[:, :, pad : pad + rows, pad : pad + cols] = batch.transpose(1, 0, 2, 3)
    # Gather the t*t shifted tile slices (each a strided copy whose inner
    # axis hops m elements), then apply the whole separable input
    # transform as a single (t^2 x t^2) Kronecker GEMM.
    x = np.empty((t * t, channels, images, tiles_r, tiles_c), dtype=np.float64)
    for i in range(t):
        for j in range(t):
            x[i * t + j] = work[:, :, i : i + tiles_r * m : m, j : j + tiles_c * m : m]
    vm = (k_in @ x.reshape(t * t, -1)).reshape(t * t, channels, n_tiles)
    prods = []
    for grp in range(groups):
        u = kernel_transforms[grp]
        if u.shape != (group_out, group_in, t, t):
            raise ValueError(
                f"group {grp}: kernel transform shape {u.shape} != "
                f"{(group_out, group_in, t, t)}"
            )
        ur = np.ascontiguousarray(u.transpose(2, 3, 0, 1)).reshape(
            t * t, group_out, group_in
        )
        vg = vm[:, grp * group_in : (grp + 1) * group_in]
        prods.append(np.matmul(ur, vg))  # (t*t, group_out, B*tiles)
    prod = prods[0] if groups == 1 else np.concatenate(prods, axis=1)
    # Output transform: Y = A^T M A folded into one Kronecker GEMM over
    # the same row-major flattened tile axis.
    y = (k_out @ prod.reshape(t * t, -1)).reshape(
        m, m, m_out, images, tiles_r, tiles_c
    )  # (p_row, p_col, M, B, Tr, Tc)
    full = y.transpose(2, 3, 4, 0, 5, 1).reshape(
        m_out, images, tiles_r * m, tiles_c * m
    )
    raw = np.ascontiguousarray(full[:, :, :out_rows, :out_cols]).reshape(
        m_out, images * out_rows * out_cols
    )
    if bias_codes is not None:
        raw += np.asarray(bias_codes, dtype=np.float64)[:, None]
    return raw, images, out_rows, out_cols


@dataclass(frozen=True)
class WinogradConvResult:
    """Output and analytic op count of a Winograd convolution."""

    output: np.ndarray
    multiply_ops: int
    accumulate_ops: int
    tile: int

    @property
    def total_ops(self) -> int:
        return self.multiply_ops + self.accumulate_ops


def winograd_conv2d(
    feature_codes: np.ndarray,
    weight_codes: np.ndarray,
    geometry: ConvGeometry,
    bias_codes: Optional[np.ndarray] = None,
    tile: int = 2,
) -> WinogradConvResult:
    """Winograd convolution of CHW integer codes with (M, C_g, 3, 3) weights.

    Returns integer codes (rounded to nearest for the non-dyadic F(4x4,3x3)
    transforms; F(2x2,3x3) is exact and the rounding is the identity),
    numerically matching :func:`repro.core.abm.direct_conv2d_codes`.
    """
    features = np.asarray(feature_codes)
    weights = np.asarray(weight_codes)
    if features.ndim != 3 or weights.ndim != 4:
        raise ValueError("expected CHW features and (M, C_g, K, K) weights")
    groups = geometry.groups
    m_out = weights.shape[0]
    if m_out % groups:
        raise ValueError("output channels must divide into groups")
    group_out = m_out // groups
    transforms = [
        winograd_kernel_transform(
            weights[g * group_out : (g + 1) * group_out], tile
        )
        for g in range(groups)
    ]
    raw, _, out_rows, out_cols = winograd_raw(
        features[None], geometry, transforms, tile=tile, bias_codes=bias_codes
    )
    output = np.rint(raw).astype(np.int64).reshape(m_out, out_rows, out_cols)
    in_rows, in_cols = features.shape[1], features.shape[2]
    spec = LayerSpec(
        name="winograd",
        kind="conv",
        in_channels=features.shape[0],
        out_channels=m_out,
        kernel=geometry.kernel,
        stride=geometry.stride,
        padding=geometry.padding,
        groups=groups,
        in_rows=in_rows,
        in_cols=in_cols,
        out_rows=out_rows,
        out_cols=out_cols,
    )
    ops = winograd_ops(spec, tile)
    return WinogradConvResult(
        output=output,
        multiply_ops=int(round(ops.multiplies)),
        accumulate_ops=int(round(ops.accumulates)),
        tile=tile,
    )


# ---------------------------------------------------------------------------
# Kernel-transform cache (per compiled layer plan).
# ---------------------------------------------------------------------------

TRANSFORM_CACHE_CAPACITY = 64

_transform_cache: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
_transform_refs: Dict[int, "weakref.ref"] = {}
_transform_lock = threading.RLock()
_transform_hits = 0
_transform_misses = 0
_transform_evictions = 0


def _evict_transforms(plan_id: int) -> None:
    global _transform_evictions
    with _transform_lock:
        _transform_refs.pop(plan_id, None)
        for key in [k for k in _transform_cache if k[0] == plan_id]:
            del _transform_cache[key]
            _transform_evictions += 1


def kernel_transform_for_plan(
    plan: "LayerPlan", group: int, tile: int
) -> np.ndarray:
    """The cached ``U = G g G^T`` tensor of one plan group.

    Keyed by plan identity (plans are immutable once compiled); entries
    evict with the plan or on the LRU bound. This is what makes the fused
    Winograd stage pay the kernel transform once per layer, not per batch.
    """
    global _transform_hits, _transform_misses
    key = (id(plan), group, tile)
    with _transform_lock:
        cached = _transform_cache.get(key)
        if cached is not None:
            _transform_cache.move_to_end(key)
            _transform_hits += 1
            return cached
        _transform_misses += 1
    u = winograd_kernel_transform(plan.dense_group_weights(group), tile)
    with _transform_lock:
        global _transform_evictions
        _transform_cache[key] = u
        if id(plan) not in _transform_refs:
            _transform_refs[id(plan)] = weakref.ref(plan)
            weakref.finalize(plan, _evict_transforms, id(plan))
        while len(_transform_cache) > TRANSFORM_CACHE_CAPACITY:
            old_key, _ = _transform_cache.popitem(last=False)
            _transform_evictions += 1
            if not any(k[0] == old_key[0] for k in _transform_cache):
                _transform_refs.pop(old_key[0], None)
    return u


def winograd_raw_from_plan(
    plan: "LayerPlan",
    batch: np.ndarray,
    bias_codes: Optional[np.ndarray] = None,
    tile: int = 2,
) -> Tuple[np.ndarray, int, int, int]:
    """Winograd execution of a compiled layer plan (cached transforms)."""
    transforms = [
        kernel_transform_for_plan(plan, g, tile)
        for g in range(plan.geometry.groups)
    ]
    return winograd_raw(
        batch, plan.geometry, transforms, tile=tile, bias_codes=bias_codes
    )


def clear_transform_cache() -> None:
    """Drop every cached kernel transform (tests)."""
    global _transform_hits, _transform_misses, _transform_evictions
    with _transform_lock:
        _transform_cache.clear()
        _transform_refs.clear()
        _transform_hits = 0
        _transform_misses = 0
        _transform_evictions = 0


def transform_cache_stats() -> CacheStats:
    """Hit/miss/eviction accounting of the transform cache (telemetry)."""
    with _transform_lock:
        return CacheStats(
            hits=_transform_hits,
            misses=_transform_misses,
            evictions=_transform_evictions,
            size=len(_transform_cache),
            capacity=TRANSFORM_CACHE_CAPACITY,
            name="baselines.winograd",
        )


register_cache("baselines.winograd", transform_cache_stats)


# ---------------------------------------------------------------------------
# Scheme model.
# ---------------------------------------------------------------------------

#: Calibrated software cost-ratio surface: predicted wall time of the
#: numpy Winograd fast path relative to the dense im2col+GEMM ABM
#: datapath, as ``flop_ratio * base * penalties``. The penalties model
#: why raw multiply reduction does not translate 1:1 into wall time on a
#: BLAS host — small GEMM operand dims run below peak, few tiles leave
#: gather/launch overhead unamortized, and large working sets push the
#: t^2-wide transform stacks (and the kernel-transform tensor U) out of
#: cache so the extra passes become DRAM-bound. Constants fitted to
#: interleaved best-of sweeps against ``LayerPlan.execute_batch_raw``
#: on the reference host (see BENCH_schemes.json); tuned conservative so
#: predicted wins are measured wins.
_CAL_BASE = {2: 0.42, 4: 0.57}
_CAL_CIN_ADD = 12.0  # BLAS efficiency saturation in the inner dim (C_g)
_CAL_MOUT_ADD = 32.0  # ... and in the output-channel dim (M_g)
_CAL_TILE_ADD = 6.0  # per-axis tile-count amortization of gather overhead
_CAL_ACT_MB = 12.0  # activation-stack working set at the cache knee
_CAL_U_MB = 24.0  # kernel-transform tensor working set at the cache knee
_CAL_NOMINAL_BATCH = 4.0  # batch the working-set terms are calibrated at

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
    executable = True

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

    def execution_cost(self, workload: "LayerWorkload") -> float:
        spec = workload.spec
        if not self.supports(spec):
            return math.inf
        ops = winograd_ops(spec, self.tile)
        m = self.tile
        t = m + 2
        tiles_r = math.ceil(spec.out_rows / m)
        tiles_c = math.ceil(spec.out_cols / m)
        tiles = tiles_r * tiles_c
        group_in = spec.in_channels // spec.groups
        group_out = spec.out_channels // spec.groups
        act_mb = (
            t * t * (spec.in_channels + spec.out_channels) * tiles
            * 8.0 * _CAL_NOMINAL_BATCH / 1e6
        )
        u_mb = t * t * spec.out_channels * group_in * 8.0 / 1e6
        ratio = (
            ops.total_ops / (2.0 * spec.macs)
            * _CAL_BASE[self.tile]
            * (1.0 + _CAL_CIN_ADD / group_in)
            * (1.0 + _CAL_MOUT_ADD / group_out)
            * (1.0 + _CAL_TILE_ADD / min(tiles_r, tiles_c))
            * (1.0 + act_mb / _CAL_ACT_MB)
            * (1.0 + u_mb / _CAL_U_MB)
        )
        # Same float-op units as ABMSchemeModel.execution_cost (2*macs):
        # the ratio is the calibrated wall-time ratio vs that datapath.
        return 2.0 * spec.macs * ratio

    def resource_overhead(self, config: "AcceleratorConfig") -> SchemeResources:
        return SchemeResources(
            alms=_TRANSFORM_ALMS[self.tile] * config.n_cu,
            dsps=0,
            m20ks=_TILE_M20KS[self.tile] * config.n_cu,
        )


register_scheme_model(WinogradModel(2))
register_scheme_model(WinogradModel(4))
