"""Exhaustive search of the seven-axis joint design space.

The paper's Figure 5 flow fixes the sharing factor, buffer depths and
clock before sweeping ``(N_knl, S_ec, N_cu)``. The joint space frees all
seven axes ``(N_knl, S_ec, N_cu, N, d_f, d_w, freq_mhz)``. One design
point costs microseconds on the compiled grid, so the whole space is
scored exhaustively:

- The cycle grid of a cell depends only on ``(N, d_f)``, so
  :func:`exhaustive_search` groups the outer cells by ``(N, d_f)`` and
  makes one :meth:`CompiledWorkload.evaluate_grid` call per workload and
  group (with a ``d_f`` buffer override). Each ``(d_w, freq)`` cell of
  the group then derives only what depends on it: throughput and power
  from the cycle grid (:func:`~repro.dse.compiled.throughput_and_power`)
  and the joint-space gates. The clock must not exceed the congestion
  model's Fmax, ``d_w`` must cover the deepest kernel stream, and over-
  or under-provisioned buffers adjust the M20K budget through the same
  width x depth block mapping as :mod:`repro.hw.buffers`.
- Multi-model sets combine per-workload grids through
  :func:`co_deployment_objectives`.
- The search returns the feasible point of highest throughput.
  Scoring each cell alone, as a one-cell space, is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..hw.buffers import BufferRequirement
from ..hw.device import FPGADevice
from ..hw.workload import ModelWorkload
from .compiled import GridEvaluation, column_tables, compile_workload
from .compiled import throughput_and_power
from .explorer import N_CU_RANGE, N_KNL_RANGE, S_EC_RANGE
from .explorer import BufferSizing, size_buffers
from .frequency import fmax_mhz_array
from .performance import share_factor_from_workloads

#: The objectives a search reports, with the direction co-deployment
#: takes the worst of: the paper's throughput target, which the search
#: maximizes, plus the resource/power axes.
OBJECTIVE_DIRECTIONS: Dict[str, str] = {
    "throughput_gops": "max",
    "logic_util": "min",
    "dsp_util": "min",
    "mem_util": "min",
    "total_power_w": "min",
}
DEFAULT_OBJECTIVES: Tuple[str, ...] = tuple(OBJECTIVE_DIRECTIONS)

#: The joint axes, inner grid axes first, in canonical parameter order.
JOINT_AXES: Tuple[str, ...] = (
    "n_knl", "s_ec", "n_cu", "n_share", "d_f", "d_w", "freq_mhz",
)


@dataclass(frozen=True)
class SearchSpace:
    """Ordered categorical axes: ``axes`` holds ``(name, candidates)``."""

    axes: Tuple[Tuple[str, Tuple[float, ...]], ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def values(self, name: str) -> Tuple[float, ...]:
        for axis, candidates in self.axes:
            if axis == name:
                return candidates
        raise KeyError(f"no axis named {name!r}")

    @property
    def size(self) -> int:
        """Total number of joint configurations."""
        return math.prod(len(values) for _, values in self.axes)


#: The clock candidates of the joint space, in MHz.
FREQ_VALUES: Tuple[float, ...] = (150.0, 175.0, 200.0, 225.0, 250.0)


def default_joint_space(workloads: Sequence[ModelWorkload]) -> SearchSpace:
    """The seven-axis joint space for a workload set.

    The grid axes come straight from the paper's sweeps
    (:data:`~repro.dse.explorer.N_KNL_RANGE`, ``S_EC_RANGE``,
    ``N_CU_RANGE``) and the clock from :data:`FREQ_VALUES`; the joint axes
    are anchored on the derived sizing so every candidate is *plausible*:
    sharing factors bracket the intensity-ratio N, ``d_f`` spans the
    sizing rule's requirement from the widest to the narrowest ``S_ec``
    (smaller depths trade BRAM for extra prefetch windows), and ``d_w``
    brackets the deepest-kernel requirement (the half-depth candidate is
    deliberately infeasible — it exercises the coverage gate).
    """
    workloads = tuple(workloads)
    if not workloads:
        raise ValueError("need at least one workload")
    derived_share = min(
        share_factor_from_workloads(w.layers) for w in workloads
    )
    shares = tuple(
        sorted({max(1, derived_share - 1), derived_share, derived_share + 1})
    )
    s_lo, s_hi = S_EC_RANGE[0], S_EC_RANGE[-1]
    s_mid = S_EC_RANGE[len(S_EC_RANGE) // 2]
    d_f_candidates = tuple(
        sorted(
            {
                max(size_buffers(w, s).d_f for w in workloads)
                for s in (s_hi, s_mid, s_lo)
            }
        )
    )
    required_dw = max(size_buffers(w, s_lo).d_w for w in workloads)
    d_w_candidates = tuple(
        sorted({max(1, required_dw // 2), required_dw, required_dw * 2})
    )
    return SearchSpace(
        (
            ("n_knl", N_KNL_RANGE),
            ("s_ec", S_EC_RANGE),
            ("n_cu", N_CU_RANGE),
            ("n_share", shares),
            ("d_f", d_f_candidates),
            ("d_w", d_w_candidates),
            ("freq_mhz", FREQ_VALUES),
        )
    )


def _ft_blocks(d_f: int, s_ec: int) -> int:
    """M20K blocks of one FT-Buffer at a given depth/vector width."""
    return BufferRequirement(
        name="FT-Buffer",
        required_depth=d_f,
        provisioned_depth=d_f,
        entry_bits=8 * s_ec,
    ).m20k_blocks


def _wt_blocks(d_w: int) -> int:
    """M20K blocks of one kernel engine's WT-Buffer slice."""
    return BufferRequirement(
        name="WT-Buffer",
        required_depth=d_w,
        provisioned_depth=d_w,
        entry_bits=16,
    ).m20k_blocks


def co_deployment_objectives(
    per_workload: Sequence[Mapping[str, np.ndarray]],
) -> Mapping[str, np.ndarray]:
    """Combine same-shape per-workload objective grids for co-deployment.

    A single bitstream serving every workload is only as good as its
    worst case, so the combination is conservative elementwise: every
    objective of :data:`OBJECTIVE_DIRECTIONS` takes its worst value across
    workloads (the minimum of a maximized one, the maximum of a minimized
    one), and a point is ``feasible`` only when it is feasible for *every*
    workload.
    """
    if len(per_workload) == 1:
        return per_workload[0]
    combined = {
        name: (np.minimum if direction == "max" else np.maximum).reduce(
            [grids[name] for grids in per_workload]
        )
        for name, direction in OBJECTIVE_DIRECTIONS.items()
    }
    combined["feasible"] = np.logical_and.reduce(
        [grids["feasible"] for grids in per_workload]
    )
    return combined


class _GroupGrid(NamedTuple):
    """One workload's figures for a ``(N, d_f)`` group of cells."""

    evaluation: GridEvaluation
    #: Dynamic energy per image of each plannable ``S_ec`` column.
    energy: np.ndarray
    #: M20K blocks the cell's FT-Buffers add over the derived sizing.
    ft_extra: np.ndarray
    derived_dw: int
    fmax: np.ndarray


def _scored_cells(
    workloads: Tuple[ModelWorkload, ...],
    device: FPGADevice,
    space: SearchSpace,
) -> Iterator[Tuple[Dict[str, float], Tuple[int, ...], Mapping[str, np.ndarray]]]:
    """(outer params, plannable S_ec values, objective grids) of every cell.

    Cells come in enumeration order (N, d_f, d_w, freq); a cell with no
    plannable ``S_ec`` column is skipped. The grids are indexed
    ``[i_knl, i_sec, i_ncu]`` over the plannable columns and hold every
    objective of :data:`OBJECTIVE_DIRECTIONS` plus ``feasible``.
    """
    knl = tuple(int(v) for v in space.values("n_knl"))
    sec = tuple(int(v) for v in space.values("s_ec"))
    ncu = tuple(int(v) for v in space.values("n_cu"))
    ncu_arr = np.asarray(ncu, dtype=np.float64)[None, None, :]
    knl_ncu = np.asarray(knl, dtype=np.float64)[:, None, None] * ncu_arr
    # Every cell's (d_f, S_ec) columns, planned in one call per workload.
    keys = [(int(d_f), s) for d_f in space.values("d_f") for s in sec]
    tables = zip(*(column_tables(w, keys) for w in workloads))
    plannable = {key: None not in column for key, column in zip(keys, tables)}
    for n_share in space.values("n_share"):
        compiled = [compile_workload(w, int(n_share)) for w in workloads]
        for d_f in space.values("d_f"):
            sub_sec = tuple(s for s in sec if plannable[int(d_f), s])
            if not sub_sec:
                continue
            # Everything but the clock and d_w: one grid per workload.
            groups = []
            for workload, grid in zip(workloads, compiled):
                derived = [size_buffers(workload, s) for s in sub_sec]
                evaluation = grid.evaluate_grid(
                    workload,
                    device,
                    n_knl_values=knl,
                    s_ec_values=sub_sec,
                    n_cu_values=ncu,
                    buffers=[
                        BufferSizing(d_f=int(d_f), d_w=sized.d_w, d_q=sized.d_q)
                        for sized in derived
                    ],
                )
                # One FT-Buffer per CU at the cell's depth instead of the
                # derived one.
                ft_delta = np.array(
                    [
                        _ft_blocks(int(d_f), s) - _ft_blocks(sized.d_f, s)
                        for s, sized in zip(sub_sec, derived)
                    ],
                    dtype=np.float64,
                )
                groups.append(
                    _GroupGrid(
                        evaluation,
                        np.array(evaluation.energy_per_image_j, dtype=np.float64),
                        ncu_arr * ft_delta[None, :, None],
                        derived[0].d_w,
                        fmax_mhz_array(evaluation.logic_util),
                    )
                )
            for d_w in space.values("d_w"):
                # One WT-Buffer slice per kernel engine at the cell's depth;
                # d_w must still cover the deepest kernel stream.
                memory = []
                for group in groups:
                    wt_delta = float(
                        _wt_blocks(int(d_w)) - _wt_blocks(group.derived_dw)
                    )
                    mem_util = (
                        group.evaluation.m20ks + (group.ft_extra + knl_ncu * wt_delta)
                    ) / device.m20k_blocks
                    feasible = (
                        group.evaluation.feasible
                        & (mem_util <= 1.0)
                        & (int(d_w) >= group.derived_dw)
                    )
                    memory.append((mem_util, feasible))
                for freq_mhz in space.values("freq_mhz"):
                    per_workload = []
                    for group, (mem_util, feasible) in zip(groups, memory):
                        evaluation = group.evaluation
                        throughput, power_w = throughput_and_power(
                            evaluation.cycles_per_image,
                            float(freq_mhz),
                            evaluation.dense_ops,
                            group.energy,
                        )
                        per_workload.append(
                            {
                                "throughput_gops": throughput,
                                "logic_util": evaluation.logic_util,
                                "dsp_util": evaluation.dsp_util,
                                "mem_util": mem_util,
                                "total_power_w": power_w,
                                "feasible": feasible & (float(freq_mhz) <= group.fmax),
                            }
                        )
                    outer = {
                        "n_share": n_share,
                        "d_f": d_f,
                        "d_w": d_w,
                        "freq_mhz": freq_mhz,
                    }
                    yield outer, sub_sec, co_deployment_objectives(per_workload)


@dataclass(frozen=True)
class ExhaustiveResult:
    """Best point of a full joint-space enumeration."""

    params: Dict[str, float]
    values: Dict[str, float]
    evaluated_points: int


def exhaustive_search(
    workloads: Sequence[ModelWorkload],
    device: FPGADevice,
    *,
    space: SearchSpace,
) -> ExhaustiveResult:
    """Enumerate the whole joint space and return the highest-throughput point.

    Every configuration is scored (``evaluated_points == space.size``);
    ``values`` reports every :data:`DEFAULT_OBJECTIVES` entry at the
    winning point. Within a cell, ties keep the first point in C order;
    across cells, the first cell in enumeration order.
    """
    workloads = tuple(workloads)
    if not workloads:
        raise ValueError("need at least one workload")
    if set(space.names) != set(JOINT_AXES):
        raise ValueError(
            f"joint search space must define exactly the axes {JOINT_AXES}, "
            f"got {space.names}"
        )
    if any(v < 1 for v in space.values("d_w")) or any(
        v <= 0 for v in space.values("freq_mhz")
    ):
        raise ValueError("d_w and freq_mhz candidates must be positive")
    knl = tuple(int(v) for v in space.values("n_knl"))
    ncu = tuple(int(v) for v in space.values("n_cu"))
    best: Optional[ExhaustiveResult] = None
    for outer, sub_sec, cell in _scored_cells(workloads, device, space):
        feasible = cell["feasible"]
        if not feasible.any():
            continue
        masked = np.where(feasible, cell["throughput_gops"], -np.inf)
        index = np.unravel_index(int(np.argmax(masked)), feasible.shape)
        if not feasible[index]:
            continue
        values = {name: float(cell[name][index]) for name in DEFAULT_OBJECTIVES}
        if not all(math.isfinite(value) for value in values.values()):
            continue
        if best is None or values["throughput_gops"] > best.values["throughput_gops"]:
            point = {
                **outer,
                "n_knl": knl[index[0]],
                "s_ec": sub_sec[index[1]],
                "n_cu": ncu[index[2]],
            }
            best = ExhaustiveResult(
                params={name: point[name] for name in space.names},
                values=values,
                evaluated_points=space.size,
            )
    if best is None:
        raise RuntimeError("no feasible point anywhere in the joint space")
    return best
