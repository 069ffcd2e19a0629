"""Exhaustive search of the seven-axis joint design space.

The paper's Figure 5 flow fixes the sharing factor, buffer depths and
clock before sweeping ``(N_knl, S_ec, N_cu)``. The joint space frees all
seven axes ``(N_knl, S_ec, N_cu, N, d_f, d_w, freq_mhz)``. One design
point costs microseconds on the compiled grid, so the whole space is
scored exhaustively:

- :class:`JointEvaluator` scores one outer ``(N, d_f, d_w, freq)`` cell
  over the full inner ``(N_knl, S_ec, N_cu)`` grid in one
  :meth:`CompiledWorkload.evaluate_grid` call per workload (with ``d_f`` /
  ``d_w`` buffer overrides). On top of the grid's logic/DSP/memory
  feasibility it adds the joint-space gates: the clock must not exceed
  the congestion model's Fmax, ``d_w`` must cover the deepest kernel
  stream, and over- or under-provisioned buffers adjust the M20K budget
  through the same width x depth block mapping as :mod:`repro.hw.buffers`.
  Multi-model sets combine per-workload grids through
  :func:`co_deployment_objectives`.
- :func:`exhaustive_search` walks every outer cell and returns the best
  feasible point on the primary objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..hw.buffers import BufferRequirement
from ..hw.device import FPGADevice
from ..hw.power import EnergyModel
from ..hw.workload import ModelWorkload
from .compiled import GridEvaluation, compile_workload
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
    evaluations: Sequence[GridEvaluation],
) -> Dict[str, np.ndarray]:
    """Combine same-shape per-workload grids into co-deployment objectives.

    A single bitstream serving every workload is only as good as its
    worst case, so the combination is conservative elementwise:
    throughput is the minimum across workloads, power/utilization the
    maximum, efficiency the minimum, and a point is feasible only when it
    is feasible for *every* workload. :class:`JointEvaluator` scores
    multi-model sets through this seam.
    """
    if not evaluations:
        raise ValueError("need at least one grid evaluation")
    shape = evaluations[0].shape
    if any(e.shape != shape for e in evaluations):
        raise ValueError("grid evaluations must share one shape")
    combined: Dict[str, np.ndarray] = {
        "throughput_gops": np.minimum.reduce(
            [e.throughput_gops for e in evaluations]
        ),
        "total_power_w": np.maximum.reduce([e.power_w for e in evaluations]),
        "gops_per_watt": np.minimum.reduce(
            [e.gops_per_watt for e in evaluations]
        ),
        "feasible": np.logical_and.reduce([e.feasible for e in evaluations]),
    }
    if all(e.logic_util is not None for e in evaluations):
        combined["logic_util"] = np.maximum.reduce(
            [e.logic_util for e in evaluations]
        )
        combined["dsp_util"] = np.maximum.reduce(
            [e.dsp_util for e in evaluations]
        )
        combined["mem_util"] = np.maximum.reduce(
            [e.mem_util for e in evaluations]
        )
    return combined


@dataclass(frozen=True)
class CellEvaluation:
    """One evaluated ``(N, d_f, d_w, freq)`` cell over a 3-axis sub-grid.

    ``values`` maps every objective of :data:`OBJECTIVE_DIRECTIONS` to an
    array indexed ``[i_knl, i_sec, i_ncu]``; ``plannable`` marks the
    ``S_ec`` columns where every workload's window plan fits the cell's
    ``d_f`` (unplannable columns score NaN and are infeasible).
    """

    n_knl_values: Tuple[int, ...]
    s_ec_values: Tuple[int, ...]
    n_cu_values: Tuple[int, ...]
    values: Mapping[str, np.ndarray]
    feasible: np.ndarray
    plannable: np.ndarray

    def point(
        self, i_knl: int, i_sec: int, i_ncu: int, names: Sequence[str]
    ) -> Tuple[Dict[str, float], bool]:
        """(objective values, feasibility) of one sub-grid point."""
        if not bool(self.plannable[i_sec]):
            return {}, False
        out: Dict[str, float] = {}
        for name in names:
            value = float(self.values[name][i_knl, i_sec, i_ncu])
            if math.isfinite(value):
                out[name] = value
        feasible = bool(self.feasible[i_knl, i_sec, i_ncu]) and len(out) == len(
            names
        )
        return out, feasible

    def best_feasible(self, objective: str) -> Optional[Tuple[int, int, int]]:
        """Index of the best feasible point on one objective.

        Ties break to the first point in C order.
        """
        if not self.feasible.any():
            return None
        array = self.values[objective]
        if OBJECTIVE_DIRECTIONS[objective] == "max":
            flat = int(np.argmax(np.where(self.feasible, array, -np.inf)))
        else:
            flat = int(np.argmin(np.where(self.feasible, array, np.inf)))
        return tuple(int(i) for i in np.unravel_index(flat, self.feasible.shape))


class JointEvaluator:
    """Scores joint-space cells for one or more co-deployed workloads.

    On top of the compiled grid's logic/DSP/memory feasibility this adds
    the joint-space gates: the cell's clock must not exceed the
    congestion model's Fmax at the point's logic utilization, the cell's
    ``d_w`` must cover every workload's deepest kernel stream, and the
    delta between the cell's and the derived buffer sizing adjusts the
    M20K estimate through the same block mapping as :mod:`repro.hw.buffers`
    (so undersized buffers *save* BRAM and oversized ones must still fit
    the device).
    """

    def __init__(
        self,
        workloads: Sequence[ModelWorkload],
        device: FPGADevice,
        *,
        resources: ResourceModel = DEFAULT_RESOURCE_MODEL,
        logic_limit: float = 0.75,
        energy_model: Optional[EnergyModel] = None,
        frequency_model: FrequencyModel = DEFAULT_FREQUENCY_MODEL,
    ) -> None:
        self.workloads = tuple(workloads)
        if not self.workloads:
            raise ValueError("need at least one workload")
        self.device = device
        self.resources = resources
        self.logic_limit = logic_limit
        self.energy_model = (
            energy_model if energy_model is not None else EnergyModel()
        )
        self.frequency_model = frequency_model

    def evaluate_cell(
        self,
        outer: Mapping[str, float],
        n_knl_values: Sequence[int],
        s_ec_values: Sequence[int],
        n_cu_values: Sequence[int],
    ) -> CellEvaluation:
        """Evaluate one outer cell across a full inner sub-grid."""
        knl = tuple(int(v) for v in n_knl_values)
        sec = tuple(int(v) for v in s_ec_values)
        ncu = tuple(int(v) for v in n_cu_values)
        n_share = int(outer["n_share"])
        d_f = int(outer["d_f"])
        d_w = int(outer["d_w"])
        freq_mhz = float(outer["freq_mhz"])
        shape = (len(knl), len(sec), len(ncu))
        values = {
            name: np.full(shape, np.nan) for name in OBJECTIVE_DIRECTIONS
        }
        feasible = np.zeros(shape, dtype=bool)
        plannable = np.zeros(len(sec), dtype=bool)

        compiled = [compile_workload(w, n_share) for w in self.workloads]
        common: Optional[Set[int]] = None
        for grid in compiled:
            columns = {j for j, s in enumerate(sec) if grid.plannable(d_f, s)}
            common = columns if common is None else (common & columns)
        ordered_columns = sorted(common or ())
        if not ordered_columns:
            return CellEvaluation(knl, sec, ncu, values, feasible, plannable)

        sub_sec = tuple(sec[j] for j in ordered_columns)
        knl_arr = np.asarray(knl, dtype=np.float64)[:, None, None]
        ncu_arr = np.asarray(ncu, dtype=np.float64)[None, None, :]
        evaluations = []
        mem_adjusted = []
        extra_gates = []
        for workload, grid in zip(self.workloads, compiled):
            derived = [size_buffers(workload, s) for s in sub_sec]
            override = [
                BufferSizing(d_f=d_f, d_w=d_w, d_q=sizing.d_q)
                for sizing in derived
            ]
            evaluation = grid.evaluate_grid(
                workload,
                self.resources,
                self.device,
                n_knl_values=knl,
                s_ec_values=sub_sec,
                n_cu_values=ncu,
                freq_mhz=freq_mhz,
                logic_limit=self.logic_limit,
                buffers=override,
                energy_model=self.energy_model,
            )
            # The cell's buffer sizing vs the derived one shifts the M20K
            # budget: one FT-Buffer per CU, one WT-Buffer slice per kernel
            # engine.
            ft_delta = np.array(
                [
                    _ft_blocks(d_f, s) - _ft_blocks(sizing.d_f, s)
                    for s, sizing in zip(sub_sec, derived)
                ],
                dtype=np.float64,
            )
            wt_delta = float(_wt_blocks(d_w) - _wt_blocks(derived[0].d_w))
            extra = (
                ncu_arr * ft_delta[None, :, None]
                + knl_arr * ncu_arr * wt_delta
            )
            mem_util = (evaluation.m20ks + extra) / self.device.m20k_blocks
            fmax = self.frequency_model.fmax_mhz_array(evaluation.logic_util)
            gate = (
                (mem_util <= 1.0)
                & (freq_mhz <= fmax)
                & (d_w >= derived[0].d_w)
            )
            evaluations.append(evaluation)
            mem_adjusted.append(mem_util)
            extra_gates.append(gate)

        base = co_deployment_objectives(evaluations)
        sub_values = {
            "throughput_gops": base["throughput_gops"],
            "logic_util": base["logic_util"],
            "dsp_util": base["dsp_util"],
            "mem_util": np.maximum.reduce(mem_adjusted),
            "total_power_w": base["total_power_w"],
            "gops_per_watt": base["gops_per_watt"],
        }
        sub_feasible = base["feasible"] & np.logical_and.reduce(extra_gates)
        for j_sub, j in enumerate(ordered_columns):
            plannable[j] = True
            feasible[:, j, :] = sub_feasible[:, j_sub, :]
            for name, array in values.items():
                array[:, j, :] = sub_values[name][:, j_sub, :]
        return CellEvaluation(knl, sec, ncu, values, feasible, plannable)


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

    One vectorized inner-grid evaluation per outer cell; every
    configuration is scored (``evaluated_points == space.size``). The
    first objective is the primary; ``values`` reports every objective at
    the winning point. Ties keep the first point in enumeration order.
    """
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
    primary = objectives[0]
    sign = 1.0 if OBJECTIVE_DIRECTIONS[primary] == "max" else -1.0
    evaluator = JointEvaluator(
        workloads,
        device,
        resources=resources,
        logic_limit=logic_limit,
        energy_model=energy_model,
        frequency_model=frequency_model,
    )
    knl = tuple(int(v) for v in space.values("n_knl"))
    sec = tuple(int(v) for v in space.values("s_ec"))
    ncu = tuple(int(v) for v in space.values("n_cu"))
    best: Optional[Tuple[float, Dict[str, float], Dict[str, float]]] = None
    for n_share in space.values("n_share"):
        for d_f in space.values("d_f"):
            for d_w in space.values("d_w"):
                for freq_mhz in space.values("freq_mhz"):
                    outer = {
                        "n_share": n_share,
                        "d_f": d_f,
                        "d_w": d_w,
                        "freq_mhz": freq_mhz,
                    }
                    cell = evaluator.evaluate_cell(outer, knl, sec, ncu)
                    index = cell.best_feasible(primary)
                    if index is None:
                        continue
                    values, feasible = cell.point(*index, objectives)
                    if not feasible:
                        continue
                    score = sign * values[primary]
                    if best is None or score > best[0]:
                        point = {
                            **outer,
                            "n_knl": knl[index[0]],
                            "s_ec": sec[index[1]],
                            "n_cu": ncu[index[2]],
                        }
                        params = {name: point[name] for name in space.names}
                        best = (score, params, values)
    if best is None:
        raise RuntimeError("no feasible point anywhere in the joint space")
    return ExhaustiveResult(
        params=best[1], values=best[2], evaluated_points=space.size
    )
