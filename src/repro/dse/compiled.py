"""Compiled whole-grid evaluation of the analytic DSE models.

The exploration flow of paper Figure 5 exists so thousands of design
points can be scored *analytically* instead of simulated — but the
per-point evaluators (`estimate_model` in ``MODE_QUANTIZED`` plus the
scalar resource equations) defeat that by re-sorting every layer's kernel
arrays and walking every prefetch window in Python for each configuration.
This module compiles the per-layer invariants once per (workload, N) and
then scores the full ``N_knl x S_ec x N_cu`` space with array operations:

- **Engine vectors.** The quantized model's per-kernel engine cost
  ``max(nonzeros, distinct * N)`` does not depend on the grid axes, so each
  layer's vector is built and descending-sorted exactly once. Because the
  vector is sorted, the balanced grouping's per-group maximum for *any*
  ``N_knl`` is simply the first element of each chunk — ``sum(group_max)``
  for every ``N_knl`` is the strided sum ``engine[::N_knl].sum()``, no
  re-sort, no reshape, no padding.
- **Column tables.** Window plans, vector steps, batch images and the
  DDR bytes behind the energy model depend only on a column's
  ``(d_f, S_ec)`` geometry, not on ``N``, ``N_knl`` or ``N_cu``.
  :func:`plan_columns` plans every requested column of a workload at
  once, as ``(layers, columns)`` arrays, with the closed forms of
  :func:`~repro.hw.tiling.plan_layer_windows` (its scalar oracle). A
  prefetch grid has at most four window shapes (interior, right edge,
  bottom edge, corner), so the exact sum of ``ceil(rows * cols / S_ec)``
  over its ``G_r x G_c`` windows is four integer terms. The tables are
  kept on the workload (``ModelWorkload.column_tables``), so every N's
  compiled grid and every joint-space ``(d_w, freq)`` cell re-reads them.
  Group-max sums are gathered once per grid as one ``(layers, N_knl)``
  matrix.
- **Resources.** :func:`~repro.dse.resources.estimate_resource_arrays`
  evaluates the C0..C7 equations over broadcast parameter arrays,
  operation-for-operation identical to the scalar path.

Every element of the resulting grid is **float-identical** to what the
per-point oracle, `estimate_model` plus `estimate_resources`, produces
for the corresponding configuration — the differential suite in
``tests/test_dse_compiled.py`` pins this point for point.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..hw.config import AcceleratorConfig
from ..hw.device import FPGADevice
from ..hw.power import STATIC_W, dynamic_energy_per_image
from ..hw.tiling import plan_layer_windows
from ..hw.workload import LayerWorkload, ModelWorkload
from ..telemetry.caches import Memo
from .resources import LOGIC_BUDGET, ResourceEstimate, ResourceUtilization
from .resources import estimate_resource_arrays


def _ceil_div(a, b):
    return -(-a // b)


class _ColumnPlans(NamedTuple):
    """Window plans of a batch of ``(d_f, S_ec)`` columns: ``[layer, column]``
    arrays, then two per column. An unplannable column's entries mean nothing."""

    window_rows: np.ndarray
    window_cols: np.ndarray
    g_r: np.ndarray
    g_c: np.ndarray
    window_input_bytes: np.ndarray
    window_output_bytes: np.ndarray
    steps: np.ndarray
    batch: np.ndarray
    plannable: np.ndarray
    ddr_bytes: Tuple[float, ...]


def _planned_geometry(layer: LayerWorkload) -> Tuple[int, ...]:
    """A layer's figures as the planner sees them: an FC layer is one 1x1
    window over its whole input, whose lanes batch ``S_ec`` images."""
    spec = layer.spec
    if spec.is_fc:
        geometry = (spec.input_size, 1, 1, 1, 1)
    else:
        geometry = (spec.in_channels, spec.kernel, spec.stride)
        geometry += (spec.out_rows, spec.out_cols)
    return geometry + (spec.out_channels, layer.encoded_bytes, spec.is_fc)


def plan_columns(
    workload: ModelWorkload, d_f: Sequence[int], s_ec: Sequence[int]
) -> _ColumnPlans:
    """Plan every layer on every ``(d_f[j], s_ec[j])`` column at once.

    The array form of :func:`~repro.hw.tiling.plan_layer_windows`, the
    vector steps of its ``window_runs`` and
    :func:`~repro.hw.power.analytic_ddr_bytes`, equal to them exactly
    while products stay below 2**53.
    """
    channels, k, s, rows, cols, out_channels, weights, is_fc = np.array(
        [_planned_geometry(layer) for layer in workload.layers], dtype=np.int64
    ).reshape(-1, 8).T[:, :, None]
    d_f = np.asarray(d_f, dtype=np.int64)[None, :]
    s_ec = np.asarray(s_ec, dtype=np.int64)[None, :]
    # A non-positive depth or width plans nothing.
    capacity = np.where((d_f >= 1) & (s_ec >= 1), d_f * s_ec, 0)
    s_ec = np.maximum(s_ec, 1)

    # Full-width stripes: the tallest lane-filling height that fits.
    row_bytes = channels * s * ((cols - 1) * s + k)
    full = row_bytes <= capacity
    tallest = np.minimum(rows, capacity // row_bytes)
    fill = s_ec // np.gcd(cols, s_ec)
    w_r = np.where(full, tallest - tallest % fill, 1)
    layer, column = np.nonzero(full & (tallest < fill))
    if layer.size:  # no lane-filling height fits: best fill, taller on ties
        limit = tallest[layer, column][:, None]
        heights = np.arange(limit.max(), 0, -1)
        pixels = heights * cols[layer]
        lanes = s_ec[0, column][:, None]
        fills = pixels / (_ceil_div(pixels, lanes) * lanes)
        fills[heights > limit] = -1.0
        w_r[layer, column] = heights[np.argmax(fills, axis=1)]
    # Column tiles: the widest tile of one row that fits.
    widest = (capacity // (channels * s) - k) // s + 1
    w_c = np.where(full, cols, np.maximum(1, widest))
    cols_in = (w_c - 1) * s + k

    g_r, g_c = _ceil_div(rows, w_r), _ceil_div(cols, w_c)
    halo = channels * np.maximum(k - s, 0) * cols_in
    window_input = channels * w_r * s * cols_in + _ceil_div(halo, g_c)
    window_output = out_channels * w_r * w_c
    r_edge, c_edge = rows - (g_r - 1) * w_r, cols - (g_c - 1) * w_c
    steps = (
        (g_r - 1) * (g_c - 1) * _ceil_div(w_r * w_c, s_ec)
        + (g_r - 1) * _ceil_div(w_r * c_edge, s_ec)
        + (g_c - 1) * _ceil_div(r_edge * w_c, s_ec)
        + _ceil_div(r_edge * c_edge, s_ec)
    )
    # layer_traffic: the encoded weights stream once per window, shared by
    # the S_ec-image batch; Python's sum adds the layers in order.
    windows = g_r * g_c
    traffic = windows * (window_input + window_output) + weights * windows / s_ec
    return _ColumnPlans(
        w_r, w_c, g_r, g_c, window_input, window_output, steps,
        np.where(is_fc == 1, s_ec, 1),
        (channels * s * cols_in <= capacity).all(axis=0),
        tuple(sum(column) for column in traffic.T.tolist()),
    )


def column_tables(
    workload: ModelWorkload, columns: Sequence[Tuple[int, int]]
) -> List[Optional[_Column]]:
    """Each ``(d_f, S_ec)`` column's tables, None where a layer has no plan.
    The workload keeps them; its missing columns are planned in one call
    (racing threads may both plan a column; the first insert wins)."""
    store = workload.column_tables
    missing = [key for key in dict.fromkeys(columns) if key not in store]
    if missing:
        plans = plan_columns(workload, *zip(*missing))
        for j, key in enumerate(missing):
            column = _Column(plans.steps[:, j], plans.batch[:, j], plans.ddr_bytes[j])
            store.setdefault(key, column if plans.plannable[j] else None)
    return [store[key] for key in columns]


def throughput_and_power(
    cycles_per_image: np.ndarray,
    freq_mhz: float,
    dense_ops: int,
    energy_per_image_j: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """(GOP/s, total W) of an ``[N_knl, S_ec, N_cu]`` cycle grid.

    ``energy_per_image_j`` holds one dynamic energy per ``S_ec`` column.
    The clock only scales the cycle grid, so the joint-space search scores
    every candidate frequency from one grid through this formula, float-
    identical to the per-point :func:`repro.hw.power.abm_power_analytic`.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        seconds = cycles_per_image / (freq_mhz * 1e6)
        throughput = dense_ops / seconds / 1e9
        power_w = energy_per_image_j[None, :, None] / seconds + STATIC_W
    return throughput, power_w


@dataclass(frozen=True)
class _Column:
    """Per-layer figures of one ``(d_f, S_ec)`` column of the grid."""

    #: Exact vector steps and batch images per layer.
    steps: np.ndarray
    batch: np.ndarray
    #: Per-image DDR bytes of the whole model (``analytic_ddr_bytes``).
    ddr_bytes: float


_T = TypeVar("_T")


@dataclass(frozen=True)
class GridEvaluation:
    """Dense evaluation of the ``N_knl x S_ec x N_cu`` design space.

    Every array is indexed ``[i_knl, i_sec, i_ncu]``. Buffer depths vary
    only along the ``S_ec`` axis (they are derived per ``size_buffers``),
    exactly as in the per-point model.
    """

    n_knl_values: Tuple[int, ...]
    s_ec_values: Tuple[int, ...]
    n_cu_values: Tuple[int, ...]
    freq_mhz: float
    #: Per-S_ec buffer sizing (``repro.dse.explorer.BufferSizing``).
    buffers: Tuple[object, ...]
    cycles_per_image: np.ndarray
    throughput_gops: np.ndarray
    alms: np.ndarray
    dsps: np.ndarray
    m20ks: np.ndarray
    logic_util: np.ndarray
    dsp_util: np.ndarray
    mem_util: np.ndarray
    #: Within :data:`~repro.dse.resources.LOGIC_BUDGET` and the device's
    #: DSPs and M20Ks.
    feasible: np.ndarray
    n_share: int
    #: Dynamic energy per image per ``S_ec`` column (it depends only on the
    #: (d_f, s_ec) geometry, not on the engine/CU axes).
    energy_per_image_j: Tuple[float, ...]
    dense_ops: int

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.cycles_per_image.shape

    def config_at(self, i_knl: int, i_sec: int, i_ncu: int) -> AcceleratorConfig:
        """The full configuration of one grid point (with sized buffers)."""
        buffers = self.buffers[i_sec]
        return AcceleratorConfig(
            n_cu=self.n_cu_values[i_ncu],
            n_knl=self.n_knl_values[i_knl],
            n_share=self.n_share,
            s_ec=self.s_ec_values[i_sec],
            d_f=buffers.d_f,
            d_w=buffers.d_w,
            d_q=buffers.d_q,
            freq_mhz=self.freq_mhz,
        )

    def estimate_at(self, i_knl: int, i_sec: int, i_ncu: int) -> ResourceEstimate:
        idx = (i_knl, i_sec, i_ncu)
        return ResourceEstimate(
            alms=int(self.alms[idx]),
            dsps=int(self.dsps[idx]),
            m20ks=int(self.m20ks[idx]),
        )

    def utilization_at(
        self, i_knl: int, i_sec: int, i_ncu: int
    ) -> ResourceUtilization:
        idx = (i_knl, i_sec, i_ncu)
        return ResourceUtilization(
            logic=float(self.logic_util[idx]),
            dsp=float(self.dsp_util[idx]),
            memory=float(self.mem_util[idx]),
        )


class CompiledWorkload:
    """Per-(workload, N) invariants for compile-once/evaluate-many DSE.

    Use :func:`compile_workload` rather than constructing directly — it
    memoizes instances per workload identity, which is what makes repeated
    sweeps (``explore``, ``exhaustive_search``, benchmarks) pay compilation
    once. The instance holds only a weak reference to its workload, so a
    memo entry never keeps the workload alive; :meth:`evaluate_grid` takes
    the workload again and checks it is the compiled one.
    """

    def __init__(self, workload: ModelWorkload, n_share: int) -> None:
        if n_share < 1:
            raise ValueError("n_share must be >= 1")
        self._workload = weakref.ref(workload)
        self.n_share = n_share
        self.dense_ops = workload.dense_ops
        #: Per layer, the descending-sorted per-kernel engine cost
        #: max(nonzeros, distinct * N).
        self._engines: Tuple[np.ndarray, ...] = tuple(
            np.ascontiguousarray(
                np.sort(np.maximum(layer.nonzeros, layer.distinct * n_share))[::-1]
            )
            for layer in workload.layers
        )
        #: n_knl -> group-max sums, an (L,) float64 array.
        self._group_max: Dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def _table(self, table: Dict, key, build: Callable[[], _T]) -> _T:
        """``table[key]``, built outside the lock on first use."""
        with self._lock:
            cached = table.get(key)
        if cached is None:
            cached = build()
            with self._lock:
                cached = table.setdefault(key, cached)
        return cached

    def group_max_sums(self, n_knl: int) -> np.ndarray:
        """``sum(group_max)`` of every layer for one engine count.

        The balanced grouping sorts kernels by load before chunking into
        groups of ``n_knl``; on the descending-sorted engine vector each
        group's maximum is its first element, so the sum over groups is a
        strided slice sum — identical to the reference's pad/sort/reshape
        reduction, without doing any of it per design point.
        """
        return self._table(
            self._group_max,
            n_knl,
            lambda: np.array(
                [float(engine[::n_knl].sum()) for engine in self._engines],
                dtype=np.float64,
            ),
        )

    def evaluate_grid(
        self,
        workload: ModelWorkload,
        device: FPGADevice,
        *,
        n_knl_values: Sequence[int],
        s_ec_values: Sequence[int],
        n_cu_values: Sequence[int],
        freq_mhz: float = 200.0,
        buffers: Optional[Sequence[object]] = None,
    ) -> GridEvaluation:
        """Score the full cartesian grid in one batch of array operations.

        ``workload`` must be the workload this instance was compiled from.
        Returns cycles/throughput, resource estimates, utilization and the
        feasibility mask for every ``(N_knl, S_ec, N_cu)`` combination —
        each element float-identical to the quantized per-point model and
        :func:`~repro.dse.resources.estimate_resources` on the
        corresponding configuration — plus each column's dynamic energy
        per image. Layer cycles accumulate in layer order (matching
        ``ModelPerformance.cycles_per_image``'s sequential sum bit for
        bit).

        ``buffers`` overrides the per-``S_ec`` buffer sizing (one
        :class:`~repro.dse.explorer.BufferSizing` per ``s_ec_values``
        entry) — the joint-space search uses this to sweep ``d_f`` /
        ``d_w`` as free axes instead of deriving them.
        """
        if self._workload() is not workload:
            raise ValueError(
                f"workload {workload.name!r} is not the one this grid was compiled from"
            )
        from .explorer import size_buffers  # late import: explorer imports us

        n_knl = tuple(int(v) for v in n_knl_values)
        s_ec = tuple(int(v) for v in s_ec_values)
        n_cu = tuple(int(v) for v in n_cu_values)
        if buffers is None:
            buffers = tuple(size_buffers(workload, s) for s in s_ec)
        else:
            buffers = tuple(buffers)
            if len(buffers) != len(s_ec):
                raise ValueError(
                    f"{len(buffers)} buffer sizings for {len(s_ec)} S_ec values"
                )
        shape = (len(n_knl), len(s_ec), len(n_cu))
        knl = np.asarray(n_knl, dtype=np.int64)[:, None, None]
        sec = np.asarray(s_ec, dtype=np.int64)[None, :, None]
        ncu = np.asarray(n_cu, dtype=np.int64)[None, None, :]

        # The column configs validate the buffer depths and the clock
        # before any table is built. They ignore the CU/kernel counts, so
        # degenerate empty axes just borrow a placeholder.
        for s, sized in zip(s_ec, buffers):
            AcceleratorConfig(
                n_cu=n_cu[0] if n_cu else 1,
                n_knl=n_knl[0] if n_knl else 1,
                n_share=self.n_share,
                s_ec=s,
                d_f=sized.d_f,
                d_w=sized.d_w,
                d_q=sized.d_q,
                freq_mhz=freq_mhz,
            )
        keys = [(sized.d_f, s) for s, sized in zip(s_ec, buffers)]
        columns = column_tables(workload, keys)
        for (d_f, s), column in zip(keys, columns):
            if column is None:  # the scalar planner names the layer
                for layer in workload.layers:
                    plan_layer_windows(layer.spec, d_f, s)

        n_layers = len(self._engines)
        # (L, S_ec) steps/batch and (L, N_knl) group-max sums.
        steps = np.empty((n_layers, len(s_ec)), dtype=np.int64)
        batch = np.empty((n_layers, len(s_ec)), dtype=np.int64)
        for j, column in enumerate(columns):
            steps[:, j] = column.steps
            batch[:, j] = column.batch
        gm = np.empty((n_layers, len(n_knl)), dtype=np.float64)
        for i, n in enumerate(n_knl):
            gm[:, i] = self.group_max_sums(n)
        total = np.zeros(shape, dtype=np.float64)
        for index in range(n_layers):
            cycles = (
                gm[index][:, None, None] * steps[index][None, :, None]
            ) / ncu / batch[index][None, :, None]
            total = total + cycles
        # Dynamic energy depends only on the (d_f, s_ec) column geometry:
        # one evaluation per column, the per-point formula.
        energy = tuple(
            dynamic_energy_per_image(workload, column.ddr_bytes) for column in columns
        )
        throughput, _ = throughput_and_power(
            total, freq_mhz, self.dense_ops, np.array(energy, dtype=np.float64)
        )

        alms, dsps, m20ks = estimate_resource_arrays(knl, sec, ncu, self.n_share)
        alms = np.broadcast_to(alms, shape).copy()
        dsps = np.broadcast_to(dsps, shape).copy()
        m20ks = np.broadcast_to(m20ks, shape).copy()
        logic_util = alms / device.alms
        dsp_util = dsps / device.dsps
        mem_util = m20ks / device.m20k_blocks
        return GridEvaluation(
            n_knl_values=n_knl,
            s_ec_values=s_ec,
            n_cu_values=n_cu,
            freq_mhz=freq_mhz,
            buffers=buffers,
            cycles_per_image=total,
            throughput_gops=throughput,
            alms=alms,
            dsps=dsps,
            m20ks=m20ks,
            logic_util=logic_util,
            dsp_util=dsp_util,
            mem_util=mem_util,
            feasible=(
                (logic_util <= LOGIC_BUDGET) & (dsp_util <= 1.0) & (mem_util <= 1.0)
            ),
            n_share=self.n_share,
            energy_per_image_j=energy,
            dense_ops=self.dense_ops,
        )


#: Compiled workloads, memoized per (workload identity, N) and LRU-bounded.
#: A compiled workload holds only a weak reference to its workload, so the
#: entries are dropped when the workload is collected.
_compiled = Memo("dse.compiled", capacity=64)


def compile_workload(workload: ModelWorkload, n_share: int) -> CompiledWorkload:
    """Memoized compilation of a workload's grid-invariant figures."""
    return _compiled.get(
        n_share, lambda: CompiledWorkload(workload, n_share), owner=workload
    )
