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
- The search returns the best feasible point on the primary objective.
  Scoring each cell alone, as a one-cell space, is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..hw.buffers import BufferRequirement
from ..hw.device import FPGADevice
from ..hw.power import EnergyModel
from ..hw.workload import ModelWorkload
from .compiled import GridEvaluation, column_tables, compile_workload
from .compiled import throughput_and_power
from .explorer import BufferSizing, size_buffers
from .frequency import DEFAULT_FREQUENCY_MODEL, FrequencyModel
from .performance import share_factor_from_workloads
from .resources import DEFAULT_RESOURCE_MODEL, ResourceModel

#: Every objective the joint evaluator can score, with its direction.
OBJECTIVE_DIRECTIONS: Dict[str, str] = {
    "throughput_gops": "max",
    "logic_util": "min",
    "dsp_util": "min",
    "mem_util": "min",
    "total_power_w": "min",
    "gops_per_watt": "max",
}

#: Default objectives: the paper's throughput target plus the
#: resource/power axes. The first entry is the primary objective the
#: search maximizes or minimizes.
DEFAULT_OBJECTIVES: Tuple[str, ...] = (
    "throughput_gops",
    "logic_util",
    "dsp_util",
    "mem_util",
    "total_power_w",
)

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


def default_joint_space(
    workloads: Sequence[ModelWorkload],
    *,
    n_knl_values: Sequence[int] = tuple(range(2, 25)),
    s_ec_values: Sequence[int] = tuple(range(4, 33, 2)),
    n_cu_values: Sequence[int] = tuple(range(1, 7)),
    freq_values: Sequence[float] = (150.0, 175.0, 200.0, 225.0, 250.0),
) -> SearchSpace:
    """The seven-axis joint space for a workload set.

    The grid axes come straight from the paper's sweeps; the joint axes
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
    ordered_sec = sorted(int(s) for s in s_ec_values)
    s_lo, s_hi = ordered_sec[0], ordered_sec[-1]
    s_mid = ordered_sec[len(ordered_sec) // 2]
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
            ("n_knl", tuple(int(v) for v in n_knl_values)),
            ("s_ec", tuple(ordered_sec)),
            ("n_cu", tuple(int(v) for v in n_cu_values)),
            ("n_share", shares),
            ("d_f", d_f_candidates),
            ("d_w", d_w_candidates),
            ("freq_mhz", tuple(float(v) for v in freq_values)),
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
    resources: ResourceModel,
    logic_limit: float,
    energy_model: EnergyModel,
    frequency_model: FrequencyModel,
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
                    resources,
                    device,
                    n_knl_values=knl,
                    s_ec_values=sub_sec,
                    n_cu_values=ncu,
                    logic_limit=logic_limit,
                    buffers=[
                        BufferSizing(d_f=int(d_f), d_w=sized.d_w, d_q=sized.d_q)
                        for sized in derived
                    ],
                    energy_model=energy_model,
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
                        frequency_model.fmax_mhz_array(evaluation.logic_util),
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
                        throughput, power_w, gops_per_watt = throughput_and_power(
                            evaluation.cycles_per_image,
                            float(freq_mhz),
                            evaluation.dense_ops,
                            group.energy,
                            evaluation.static_w,
                        )
                        per_workload.append(
                            {
                                "throughput_gops": throughput,
                                "logic_util": evaluation.logic_util,
                                "dsp_util": evaluation.dsp_util,
                                "mem_util": mem_util,
                                "total_power_w": power_w,
                                "gops_per_watt": gops_per_watt,
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
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    resources: ResourceModel = DEFAULT_RESOURCE_MODEL,
    logic_limit: float = 0.75,
    energy_model: Optional[EnergyModel] = None,
    frequency_model: FrequencyModel = DEFAULT_FREQUENCY_MODEL,
) -> ExhaustiveResult:
    """Enumerate the whole joint space and return the primary-best point.

    Every configuration is scored (``evaluated_points == space.size``).
    The first objective is the primary; ``values`` reports every objective
    at the winning point. Within a cell, ties keep the first point in C
    order; across cells, the first cell in enumeration order.
    """
    workloads = tuple(workloads)
    if not workloads:
        raise ValueError("need at least one workload")
    if set(space.names) != set(JOINT_AXES):
        raise ValueError(
            f"joint search space must define exactly the axes {JOINT_AXES}, "
            f"got {space.names}"
        )
    unknown = [name for name in objectives if name not in OBJECTIVE_DIRECTIONS]
    if unknown or not objectives:
        raise ValueError(
            f"objectives must be a non-empty subset of "
            f"{sorted(OBJECTIVE_DIRECTIONS)}, got {list(objectives)}"
        )
    if any(v < 1 for v in space.values("d_w")) or any(
        v <= 0 for v in space.values("freq_mhz")
    ):
        raise ValueError("d_w and freq_mhz candidates must be positive")
    primary = objectives[0]
    maximize = OBJECTIVE_DIRECTIONS[primary] == "max"
    sign = 1.0 if maximize else -1.0
    knl = tuple(int(v) for v in space.values("n_knl"))
    ncu = tuple(int(v) for v in space.values("n_cu"))
    best: Optional[Tuple[float, Dict[str, float], Dict[str, float]]] = None
    for outer, sub_sec, cell in _scored_cells(
        workloads,
        device,
        space,
        resources,
        logic_limit,
        energy_model if energy_model is not None else EnergyModel(),
        frequency_model,
    ):
        feasible = cell["feasible"]
        if not feasible.any():
            continue
        masked = np.where(feasible, cell[primary], -np.inf if maximize else np.inf)
        flat = int(np.argmax(masked) if maximize else np.argmin(masked))
        index = np.unravel_index(flat, feasible.shape)
        if not feasible[index]:
            continue
        values = {name: float(cell[name][index]) for name in objectives}
        if not all(math.isfinite(value) for value in values.values()):
            continue
        score = sign * values[primary]
        if best is None or score > best[0]:
            point = {
                **outer,
                "n_knl": knl[index[0]],
                "s_ec": sub_sec[index[1]],
                "n_cu": ncu[index[2]],
            }
            best = (score, {name: point[name] for name in space.names}, values)
    if best is None:
        raise RuntimeError("no feasible point anywhere in the joint space")
    return ExhaustiveResult(
        params=best[1], values=best[2], evaluated_points=space.size
    )
