"""Design space exploration flow (paper Section 5.2, Figures 5-7).

The flow mirrors the paper's stages:

1. **Network analysis** — encode (or synthesize statistics for) the pruned
   quantized model; derive the buffer depths D_w / D_q from the deepest
   kernel streams and the sharing factor N from the minimum
   accumulate/multiply intensity ratio (Table 1's last column).
2. **N_knl sweep** (Figure 6) — with preset S_ec and N_cu, evaluate the
   Performance Model across N_knl and maximize the *normalized performance
   boost*: throughput gain per logic gain, which peaks where the fixed
   per-accelerator overhead has amortized but quantization/imbalance losses
   have not yet taken over.
3. **Characterization** — the paper's fast compiles fit the resource
   constants C0..C7; here they are stated constants fitted once to Table 2
   (:mod:`repro.dse.resources`).
4. **S_ec x N_cu sweep** (Figure 7) — evaluate attainable throughput over
   the grid under full DSP/memory utilization constraints and a logic
   budget (:data:`~repro.dse.resources.LOGIC_BUDGET`); several near-tied
   candidates are returned, exactly as the paper carries "several design
   candidates with close logic utilization ratio" into final
   implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..hw.config import AcceleratorConfig
from ..hw.device import FPGADevice
from ..hw.workload import ModelWorkload
from ..telemetry.caches import Memo
from .bandwidth import BandwidthReport, bandwidth_report
from .compiled import compile_workload
from .performance import (
    MODE_QUANTIZED,
    ModelPerformance,
    estimate_model,
    share_factor_from_workloads,
)
from .resources import ResourceEstimate, ResourceUtilization, next_power_of_two


@dataclass(frozen=True)
class BufferSizing:
    """Derived on-chip buffer depths (stage 1 of the flow)."""

    d_f: int
    d_w: int
    d_q: int


#: ``size_buffers`` results are memoized per (workload identity, s_ec):
#: ``sweep_sec_ncu`` and the joint-space evaluator ask for the same sizing
#: once per grid column instead of once per grid point.
_buffers = Memo("dse.buffers", capacity=1024)


def size_buffers(workload: ModelWorkload, s_ec: int) -> BufferSizing:
    """Derive buffer depths from the encoded model's statistics (memoized).

    - D_w covers the deepest single-kernel index stream (power of two);
    - D_q covers the deepest per-kernel Q-Table with 2x margin for the
      count-field splits of heavy value groups;
    - D_f covers the larger of the deepest FC input vector and the
      steady-state conv prefetch window (in S_ec-wide entries), with an 8%
      allocation margin, rounded to a multiple of 32.

    Results are cached per (workload identity, s_ec) until the workload is
    collected; the full layer scan runs once per distinct S_ec even across
    repeated sweeps.
    """
    return _buffers.get(
        s_ec, lambda: _size_buffers_uncached(workload, s_ec), owner=workload
    )


def _size_buffers_uncached(workload: ModelWorkload, s_ec: int) -> BufferSizing:
    max_nnz = max((int(layer.nonzeros.max(initial=0)) for layer in workload.layers), default=0)
    max_distinct = max(
        (int(layer.distinct.max(initial=0)) for layer in workload.layers), default=0
    )
    entries_needed = 1
    for layer in workload.layers:
        spec = layer.spec
        if spec.is_fc:
            need = math.ceil(spec.input_size / s_ec)
        else:
            # Two output rows of steady-state stripe (double-buffer halves).
            cols_in = (spec.out_cols - 1) * spec.stride + spec.kernel
            need = math.ceil(spec.in_channels * 2 * spec.stride * cols_in / s_ec)
        entries_needed = max(entries_needed, need)
    d_f = int(math.ceil(entries_needed * 1.08 / 32)) * 32
    return BufferSizing(
        d_f=d_f,
        d_w=next_power_of_two(max_nnz),
        d_q=next_power_of_two(max(2 * max_distinct, 2)),
    )


@dataclass(frozen=True)
class NknlPoint:
    """One point of the Figure 6 sweep."""

    n_knl: int
    throughput_gops: float
    logic_alms: int
    normalized_boost: float
    feasible: bool


#: The N_knl axis of the Figure 6 sweep.
N_KNL_RANGE: Tuple[int, ...] = tuple(range(2, 25))
#: The S_ec and N_cu axes of the Figure 7 grid.
S_EC_RANGE: Tuple[int, ...] = tuple(range(4, 33, 2))
N_CU_RANGE: Tuple[int, ...] = tuple(range(1, 7))


def sweep_nknl(
    workload: ModelWorkload,
    n_share: int,
    device: FPGADevice,
    n_cu: int = 3,
    s_ec: int = 20,
    freq_mhz: float = 200.0,
) -> List[NknlPoint]:
    """Figure 6: normalized performance boost across :data:`N_KNL_RANGE`.

    Boost is (throughput gain) / (logic gain), both relative to the first
    point of the sweep. Points whose DSP/memory/logic demand exceeds the
    device are marked infeasible, which is what bounds the
    sweep from above: at S_ec=20, N=4, N_cu=3 the GXA7's 256 DSPs admit at
    most N_knl=15.

    The sweep runs on the compiled whole-grid evaluator
    (:mod:`repro.dse.compiled`), point-for-point float-identical to the
    per-point :func:`~repro.dse.performance.estimate_model` and
    :func:`~repro.dse.resources.estimate_resources`.
    """
    evaluation = compile_workload(workload, n_share).evaluate_grid(
        workload,
        device,
        n_knl_values=N_KNL_RANGE,
        s_ec_values=(s_ec,),
        n_cu_values=(n_cu,),
        freq_mhz=freq_mhz,
    )
    points = []
    for i, n_knl in enumerate(evaluation.n_knl_values):
        perf = float(evaluation.throughput_gops[i, 0, 0])
        logic = int(evaluation.alms[i, 0, 0])
        if not points:
            base_perf, base_logic = perf, float(logic)
        points.append(
            NknlPoint(
                n_knl=n_knl,
                throughput_gops=perf,
                logic_alms=logic,
                normalized_boost=(perf / base_perf) / (logic / base_logic),
                feasible=bool(evaluation.feasible[i, 0, 0]),
            )
        )
    return points


def optimal_nknl(points: Sequence[NknlPoint]) -> int:
    """The feasible N_knl maximizing normalized boost (paper: 14)."""
    feasible = [p for p in points if p.feasible]
    if not feasible:
        raise ValueError("no feasible point in the N_knl sweep")
    return max(feasible, key=lambda p: p.normalized_boost).n_knl


@dataclass(frozen=True)
class GridPoint:
    """One point of the Figure 7 S_ec x N_cu exploration."""

    config: AcceleratorConfig
    throughput_gops: float
    resources: ResourceEstimate
    utilization: ResourceUtilization
    feasible: bool

    @property
    def s_ec(self) -> int:
        return self.config.s_ec

    @property
    def n_cu(self) -> int:
        return self.config.n_cu


def sweep_sec_ncu(
    workload: ModelWorkload,
    device: FPGADevice,
    n_knl: int,
    n_share: int,
    freq_mhz: float = 200.0,
) -> List[GridPoint]:
    """Figure 7: attainable throughput across the S_ec x N_cu grid
    (:data:`S_EC_RANGE` x :data:`N_CU_RANGE`).

    Point order is N_cu outer, S_ec inner. The grid is scored by the
    compiled whole-grid evaluator, float-identical to the per-point
    :func:`~repro.dse.performance.estimate_model` and
    :func:`~repro.dse.resources.estimate_resources`.
    """
    evaluation = compile_workload(workload, n_share).evaluate_grid(
        workload,
        device,
        n_knl_values=(n_knl,),
        s_ec_values=S_EC_RANGE,
        n_cu_values=N_CU_RANGE,
        freq_mhz=freq_mhz,
    )
    points = []
    for k, _ in enumerate(evaluation.n_cu_values):
        for j, _ in enumerate(evaluation.s_ec_values):
            points.append(
                GridPoint(
                    config=evaluation.config_at(0, j, k),
                    throughput_gops=float(evaluation.throughput_gops[0, j, k]),
                    resources=evaluation.estimate_at(0, j, k),
                    utilization=evaluation.utilization_at(0, j, k),
                    feasible=bool(evaluation.feasible[0, j, k]),
                )
            )
    return points


def best_candidates(grid: Sequence[GridPoint], count: int = 5) -> List[GridPoint]:
    """Top feasible grid points by throughput (the paper's candidate set)."""
    feasible = [point for point in grid if point.feasible]
    return sorted(feasible, key=lambda p: -p.throughput_gops)[:count]


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of the complete flow for one model on one device."""

    model: str
    device: FPGADevice
    n_share: int
    buffers: BufferSizing
    nknl_sweep: Tuple[NknlPoint, ...]
    chosen_n_knl: int
    grid: Tuple[GridPoint, ...]
    candidates: Tuple[GridPoint, ...]
    chosen: AcceleratorConfig
    performance: ModelPerformance
    bandwidth: BandwidthReport
    #: Seed of the (upstream-synthesized) workload, for provenance.
    seed: Optional[int] = None


def explore(
    workload: ModelWorkload,
    device: FPGADevice,
    freq_mhz: float = 200.0,
    preset_n_cu: int = 3,
    preset_s_ec: int = 20,
    seed: Optional[int] = None,
) -> ExplorationResult:
    """Run the full exploration flow of Figure 5.

    Both sweeps run on the compiled whole-grid evaluator. The flow has no
    internal randomness; ``seed`` records the provenance of the
    (upstream-synthesized) workload in the result so downstream reports
    can reproduce the run bit for bit. A workload without a nonzero
    weight has no work to time and raises ``ValueError``.
    """
    if not workload.accumulate_ops:
        raise ValueError(
            f"workload {workload.name!r} has no nonzero weights: "
            "no work to explore"
        )
    n_share = share_factor_from_workloads(workload.layers)
    nknl_points = sweep_nknl(
        workload,
        n_share,
        device=device,
        n_cu=preset_n_cu,
        s_ec=preset_s_ec,
        freq_mhz=freq_mhz,
    )
    n_knl = optimal_nknl(nknl_points)
    grid = sweep_sec_ncu(
        workload,
        device,
        n_knl=n_knl,
        n_share=n_share,
        freq_mhz=freq_mhz,
    )
    candidates = best_candidates(grid)
    if not candidates:
        raise RuntimeError(
            f"no feasible configuration for {workload.name!r} on {device.name}"
        )
    best = candidates[0].config
    buffers = size_buffers(workload, best.s_ec)
    chosen = AcceleratorConfig(
        n_cu=best.n_cu,
        n_knl=n_knl,
        n_share=n_share,
        s_ec=best.s_ec,
        d_f=buffers.d_f,
        d_w=buffers.d_w,
        d_q=buffers.d_q,
        freq_mhz=freq_mhz,
    )
    performance = estimate_model(workload, chosen, mode=MODE_QUANTIZED)
    bandwidth = bandwidth_report(
        workload, chosen, device, performance.images_per_second
    )
    return ExplorationResult(
        model=workload.name,
        device=device,
        n_share=n_share,
        buffers=buffers,
        nknl_sweep=tuple(nknl_points),
        chosen_n_knl=n_knl,
        grid=tuple(grid),
        candidates=tuple(candidates),
        chosen=chosen,
        performance=performance,
        bandwidth=bandwidth,
        seed=seed,
    )
